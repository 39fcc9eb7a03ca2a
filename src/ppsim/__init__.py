"""Idealized simulation of pseudo-pure state preparation on small spin systems.

Simultaneous line-selective pulses equalize every population except the
target's, a crusher gradient removes the coherences, and what is left
behaves like the target basis state.  The package bundles the operator
algebra, the pulse-angle solver, a pulse-program language, stick-spectrum
and tomography readout, and a one-step 1-SAT search that runs on the
prepared states.  Each name is imported from the module that defines it:
core, prep, readout, dsl, hogg, presets, errors or cli.
"""

__version__ = "0.1.0"
