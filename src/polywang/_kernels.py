"""Only ``backend()``, for perfbench, until ROADMAP item 1 removes this module
together with the benchmark code that reads it."""


def backend() -> str:
    """Name of the kernel implementation, recorded with benchmark runs."""
    return "numpy"
