"""Exact toolkit for two-sided shift spaces over countably infinite
alphabets, restricted to eventually periodic, finitely specified objects.
The root exports nothing, so ``import twoshift`` loads no submodule:
import from the submodules (``twoshift.points``, ``twoshift.spaces``, ...)."""
