"""Two empty entry points, kept only for the traced benchmark run.

The SatELite-style CNF preprocessor that lived here is gone: the kernel
gets the encoder's CNF as built, as zChaff got the paper's.  This stub
exists only because the ``LAYERS`` table of ``perfbench/tracer.py``
imports this module and wraps :meth:`Simplifier.preprocess` and
:meth:`SimplifyingBackend.solve` by name.  Nothing calls either.  ROADMAP
item 2 deletes the stub together with those tracer rows.
"""


class Simplifier:
    def preprocess(self) -> None:
        raise NotImplementedError("the CNF preprocessor was removed")


class SimplifyingBackend:
    def solve(self, assumptions=()) -> bool:
        raise NotImplementedError("the CNF preprocessor was removed")
