"""Chordal d-clutters, exposed-circuit erasures, linear quotients, and Betti numbers.

The package namespace holds no re-exports: import from the submodules
(``clutterkit.clutter``, ``clutterkit.erasures``, ...), so that
``import clutterkit`` and each command line call load only what they use.
"""

__version__ = "0.1.0"
