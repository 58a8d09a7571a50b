"""Per-parity quantities and factorial rows read from the package's private doubled-int cores.

Each helper rebuilds from a sextuple the doubled data that the exact
evaluators and the asymptotic router compute, and calls the private function
they call, so the tests check the code that runs rather than an adapter.
"""

from sixj.asymptotics import _phase, _shift
from sixj.geometry import tet_from_spins
from sixj.symbols import _exponents, _monomial4
from sixj.triangles import Parity, _beta_split, _check, _jj, _sums


def _split(parity, d):
    return _beta_split(d, *_sums(d)) if parity is Parity.BETA else None


def frontal_sign(s, k: int) -> int:
    """The global sign of the k-scaled super symbol: -1 when k * 4 sum j*J is odd."""
    return -1 if k * _jj(s.doubled()) % 2 else 1


def monomial4(s):
    """(parity, (4 c0, 4 c1)): the parity and the monomial the super evaluator sums with."""
    d = s.doubled()
    parity = _check(*_sums(d), "osp12")
    return parity, _monomial4(parity, d, _split(parity, d))


def shift(parity, s, geo=None) -> tuple[float, float]:
    """The router's (N, psi) for a sextuple taken at the given parity."""
    d = s.doubled()
    geo = geo or tet_from_spins(s)
    return _shift(parity, d, _sums(d)[0], _split(parity, d), 24.0 * geo.volume)


def phase(parity, s, k: int, geo) -> float:
    """The router's dihedral phase; parity None gives the standard symbol's."""
    d = s.doubled()
    slot = _split(parity, d)[-1] if parity is Parity.BETA else None
    return _phase(geo.lengths, k, geo.theta_ext, parity is Parity.GAMMA, slot)


class _Reads:
    """Signed row indices, combined by + and - as a row source's rows would be."""

    def __init__(self, terms):
        self.terms = terms

    def __add__(self, other):
        return _Reads(self.terms + other.terms)

    def __sub__(self, other):
        return _Reads(self.terms + [(-sign, a) for sign, a in other.terms])


class RecordingRows:
    """A row source that records what is read: rows[a] is the single read (+1, a)."""

    def __getitem__(self, a):
        return _Reads([(1, a)])


def signed(plus, minus) -> list[tuple[int, int]]:
    """The sorted signed multiset of row indices: (+1, a) for a in plus, (-1, a) for a in minus."""
    return sorted([(1, a) for a in plus] + [(-1, a) for a in minus])


def exponent_reads(*args) -> tuple[list, list]:
    """The signed multisets of row indices that symbols._exponents(rows, *args) adds into rad
    and coef, read through a recording row source."""
    rad, coef = _exponents(RecordingRows(), *args)
    return sorted(rad.terms), sorted(coef.terms)
