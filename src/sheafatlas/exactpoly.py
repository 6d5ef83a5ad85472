"""A name kept for the benchmark's per-layer tracer, and nothing else.

No module of the package uses `HilbertPolynomial`: every Chern number is
read off integer values through `p3rr`.  The binomial-coordinate class
lives in `tests/powerbasis.py`, with the test oracles that are its users.
"""


class HilbertPolynomial:
    """Empty: perfbench/tracer.py looks this class up after `import
    sheafatlas.cli` and wraps its public methods, of which there are none."""
