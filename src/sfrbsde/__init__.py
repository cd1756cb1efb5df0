"""Numerical laboratory for BSDEs driven by standard and fractional Brownian
motions, with an averaging-principle test bench.

The modules are the API (`from sfrbsde import averaging_lab`); the package
itself re-exports nothing, so importing one module loads only what it uses.
"""

__version__ = "0.1.0"
