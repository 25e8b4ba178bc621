"""Torus-link calculus on S^3 and RP^3 with JSJ-tree combinatorics.

The package root exports nothing: import from its modules, such as
`projlink.links`, `projlink.atlas` and `projlink.jsj`.
"""

__version__ = "0.1.0"
