"""Typed errors shared by all modules.

Genericity failures (singular pivots, undefined quasideterminants) are
expected events, not bugs: callers such as the verification harness catch
``NotGeneric`` and resample.  Every error carries enough context to
reproduce the failure.
"""


class QBruhatError(Exception):
    """Base class for all errors raised by this package."""


class ZeroInverse(QBruhatError):
    """Inversion of a zero scalar was requested."""


class IndexOutOfRange(QBruhatError):
    """A 1-based index or index set left the valid range."""


class ShapeMismatch(QBruhatError):
    """Matrix dimensions are incompatible with the requested operation."""


class NotGeneric(QBruhatError):
    """A genericity assumption failed (singular pivot or quasiminor).

    ``witness`` identifies what failed, as a tuple led by its kind:

    * kernels: ``("pivot", k)`` (no pivot in column k of a solve or an
      inverse, or a zero elimination pivot k), ``("inner", p, q)`` (the
      inner block of |A|_pq is singular), ``("rank", r)``, ``("column", j)``,
      ``("principal", k)``, ``("projection", label)``,
      ``("pivot-block", I0, J0)``, ``("expansion", r, c)``,
      ``("plucker-left", I, i, j)``, ``("plucker-right", I, i, j)``,
      ``("grid-zero", u, v, k)``;
    * factorizations: ``("standard", i, j)``, ``("stage", m, k)``,
      ``("upper-t", m, k)``, ``("branch+", k)``, ``("branch-", k)``,
      ``("branch-agreement", k)``, ``("zero-parameter",)``, ``("replay",)``,
      ``("tau", m, k)``, ``("tau-zero", m, k)``, ``("u-w0-twist", i, j)``,
      ``("w0-v-twist", i, j)``;
    * double-ratio families: ``(f, i, j)`` with f one of ``a b c d``, the
      swapped ``a' b' c' d'`` or the telescoped ``a0 b0 a1 b1``.
    """

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class NotInGaussCell(NotGeneric):
    """The matrix has no LDU decomposition (it lies outside B^- U)."""


class WrongCell(QBruhatError):
    """The matrix does not lie in the double Bruhat cell the caller claimed."""

    def __init__(self, message, expected=None, actual=None):
        super().__init__(message)
        self.expected = expected
        self.actual = actual


class NotReducedWord(QBruhatError):
    """A word failed validation (a component word is not reduced)."""


class RetriesExhausted(QBruhatError):
    """Resampling kept hitting NotGeneric until the retry budget ran out."""
