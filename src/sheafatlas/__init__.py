"""Exact enumeration and certification of moduli components of rank-2
semistable sheaves on P^3 obtained by elementary transformations of
reflexive sheaves along curves and collections of points.

All arithmetic is exact and done in integers; the closed-form c3, which can
be half-integral, is carried as 2*c3.  Every Chern number is read off
integer values of a Hilbert polynomial through the Riemann-Roch dictionary
in `p3rr`.  Closed-form formulas are compared with a second route, and
disagreements are reported rather than repaired.  The section-count and
tangent-dimension comparisons restate their first route instead; ROADMAP
lists the independent routes meant to replace them: chi(E,E), Whitney and
the spectrum.

The root binds no names of its own: import each from its module, e.g.
`sheafatlas.transform.build_report`.  It imports `exactpoly`, whose
`HilbertPolynomial` no module uses, only for the benchmark's tracer.
"""

from . import exactpoly  # perfbench/tracer.py wraps its HilbertPolynomial
