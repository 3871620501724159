"""Exact temperature fields in an expanding rotating liquid ring.

The ring of incompressible liquid (two viscosities: dissipative mu,
nondissipative mu0) expands by inertia with both free boundaries stress
free.  `core` holds the parameters and coordinate maps, `flow` the exact
flow branch, `temperature` the closed-form temperature solutions in reduced
and dimensional variables, `verification` a residual engine that
substitutes each form back into its governing equation, `solver` an
independent finite-difference solver that must converge to the closed forms
at its scheme's order (method of manufactured solutions), `dualnum` the dual
numbers behind every exact derivative, and `cli` the command line.  Each
name is imported from its module, e.g. `from ringheat.verification import
run_suite`; importing the package loads none of them.
"""

__version__ = "0.1.0"
