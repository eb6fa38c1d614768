"""Fundamental Pell units of Z[sqrt(d)] by the continued fraction of sqrt(d).

One walk over the complete quotients stops halfway through the palindromic
period, keeping one continuant row per step, and closes each block of _BLOCK
quotients as a relative generator (A + B*sqrt(d))/Q, most walks in one, with
no tree; a balanced tree of three-product nodes multiplies more into the
convergent that closes the unit; `QuadUnit` proves a norm +1 on the half unit
(Jacobson and Williams, Solving the Pell Equation, 2009). Nothing is
memoized: every call walks the continued fraction, and a caller that needs
a unit twice keeps it. A walk stops after _WALK_BOUND partial quotients.

The package's records (`QuadUnit` here, and those of `residual`, `certify`
and `golden`) are plain __slots__ classes on the two bases below, with no
`dataclasses`, whose import every command would pay.
"""

from __future__ import annotations

from decimal import Decimal
from math import isqrt

from .errors import SearchExhausted

_BLOCK = 128  # partial quotients per tree leaf, walked one continuant at a time; a power of two
_TRIAL_BOUND = 10 ** 6  # is_squarefree's last trial divisor: every n < 10^18 is decided
_WALK_BOUND = 2 ** 20  # partial quotients a walk takes before SearchExhausted, a multiple of _BLOCK


def _decimal(n: int) -> str:
    """The decimal digits of n at any size. `str` refuses an int longer than the
    interpreter's int-string limit (4300 digits by default); `Decimal` does not
    convert through that path."""
    try:
        return str(n)
    except ValueError:
        return str(Decimal(n))


def is_squarefree(n: int) -> bool:
    """Trial division by 2 and the odd k up to the cube root: the cofactor
    left has no prime factor below k and is below k^3, so it has at most two
    prime factors and is squarefree unless it is the square of a prime. A
    cofactor whose cube root lies past _TRIAL_BOUND is refused (ValueError)."""
    if n < 1 or n % 4 == 0:
        return False
    m = n // 2 if n % 2 == 0 else n
    k = 3
    while k * k * k <= m:
        if k > _TRIAL_BOUND:
            raise ValueError(f"cannot decide whether {n} is squarefree: trial division "
                             f"stops at {_TRIAL_BOUND}, which decides every n below 10^18")
        if m % k == 0:
            m //= k
            if m % k == 0:
                return False
        k += 2
    return m == 1 or isqrt(m) ** 2 != m


class _Record:
    """Base of the package's records, plain __slots__ classes whose own
    __init__ sets and proves their fields. `_key` names the fields that
    equality compares, `as_tuple` gives and the repr shows, in order."""

    __slots__ = ()

    def as_tuple(self) -> tuple:
        return tuple(getattr(self, name) for name in self._key)

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.as_tuple() == other.as_tuple()

    def __repr__(self) -> str:
        return f"{type(self).__name__}({', '.join(f'{n}={getattr(self, n)!r}' for n in self._key)})"


class _Frozen(_Record):
    """A record that is hashed by its `_key` fields and refuses assignment
    (AttributeError); its __init__ takes its fields in __slots__ order and
    sets each once, by object.__setattr__, and a copy or pickle goes through
    it again."""

    __slots__ = ()

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self.__slots__)

    def _set(self, *values) -> None:
        """Set the fields, in __slots__ order, to values."""
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def __hash__(self) -> int:
        return hash(self.as_tuple())

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r} of an immutable {type(self).__name__}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r} of an immutable {type(self).__name__}")


class QuadUnit(_Frozen):
    """The fundamental Pell unit x + y*sqrt(d) of Z[sqrt(d)], with its norm sign.

    `half` is (h, k, Q), or None: x + y*sqrt(d) = (h + k*sqrt(d))^2/Q, the
    half unit at which `fundamental_pell` stopped its walk for norm +1; it is
    left out of equality, the hash and the repr. The constructor is the one
    proof: h, k > 0, 0 < Q | 2d, 4 not dividing Q, h^2 + d*k^2 = Q*x,
    2hk = Q*y and h^2 - d*k^2 = +-Q, which gives x^2 - d*y^2 = 1
    (Q^2*(x^2 - d*y^2) = (h^2 - d*k^2)^2), or ArithmeticError; without a
    half, x^2 - d*y^2 = norm = +-1, or ValueError.
    """

    __slots__ = ("d", "x", "y", "norm", "half")
    _key = ("d", "x", "y", "norm")

    def __init__(self, d: int, x: int, y: int, norm: int, half: tuple[int, int, int] | None):
        if half is not None:
            h, k, Q = half
            hh, dkk = h * h, d * (k * k)
            if not (norm == 1 and h > 0 < k and Q > 0 and 2 * d % Q == 0 and Q % 4
                    and hh + dkk == Q * x and 2 * h * k == Q * y and abs(hh - dkk) == Q):
                raise ArithmeticError(f"the half unit of Z[sqrt({d})] does not square back to the unit "
                                      "with h, k > 0, Q | 2d, 4 not dividing Q and h^2 - d*k^2 = +-Q")
        elif norm not in (1, -1) or x * x - d * y * y != norm:
            raise ValueError(f"not a unit of Z[sqrt({d})]: {x}, {y}")
        if x <= 0 or y <= 0:
            raise ValueError("expected the positive fundamental solution")
        set_field = object.__setattr__  # one call per field, not `_set`'s loop: every walk builds a unit
        set_field(self, "d", d)
        set_field(self, "x", x)
        set_field(self, "y", y)
        set_field(self, "norm", norm)
        set_field(self, "half", half)

    def __str__(self) -> str:
        return f"{_decimal(self.x)} + {_decimal(self.y)}*sqrt({self.d})  (norm {self.norm:+d})"


def fundamental_pell(d: int) -> QuadUnit:
    """Smallest unit > 1 of Z[sqrt(d)], from the continued fraction of sqrt(d),
    walked on every call. The norm is -1 exactly when the period length is odd.
    A walk stops after _WALK_BOUND partial quotients with SearchExhausted.
    """
    if d <= 1 or not is_squarefree(d):
        raise ValueError(f"d must be a squarefree integer > 1, got {d}")
    return QuadUnit(d, *_half_period(d))


def _half_period(d: int) -> tuple[int, int, int, tuple[int, int, int] | None]:
    """(x, y, norm, half) of the fundamental unit, from the first half of the
    period; half is (h, k, Q) for an even period and None for an odd one.

    The complete quotients (sqrt(d) + P_i)/Q_i follow Q_(i+1) = Q_(i-1) +
    a_i*(P_i - P_(i+1)), Q_(-1) = d, and the relative generators theta_n =
    h_(n-1) + k_(n-1)*sqrt(d) = prod_(i=1..n) (P_i + sqrt(d))/Q_(i-1) carry
    the convergents h_i/k_i. A block of up to _BLOCK quotients from complete
    quotient u to v keeps only its bottom continuants k, k_prev and closes as
    the leaf (k*P_v + k_prev*Q_v, k, Q_u) of theta_v/theta_u; `_tree` makes
    theta_m = h + k*sqrt(d) of them. The first m with Q_m == Q_(m+1) gives an
    odd period and eps = theta_m^2*(P_(m+1) + sqrt(d))/Q_m^2 of norm -1; the
    first m >= 1 with P_m == P_(m+1) an even one and eps = theta_m^2/Q_m of
    norm +1, Q_m | 2d, whose x and y are h^2 + d*k^2 and 2hk over Q_m: the
    unit's constructor proves the half unit, and so the norm, on them.
    """
    a0 = isqrt(d)
    P, Q, Q_prev = 0, 1, d
    leaves, closed = [], False
    for _ in range(_WALK_BOUND // _BLOCK):  # the bound, read once per block
        Q_u, k, k_prev = Q, 0, 1
        for _ in range(_BLOCK):
            a = (a0 + P) // Q
            P_next = a * Q - P
            Q_next = Q_prev + a * (P - P_next)
            if Q_next == Q or P_next == P:
                closed = True
                break
            k, k_prev = a * k + k_prev, k
            P, Q, Q_prev = P_next, Q_next, Q
        leaves.append((k * P + k_prev * Q, k, Q_u))
        if closed:
            break
    else:
        raise SearchExhausted(f"the continued fraction of sqrt({_decimal(d)}) did not close its half "
                              f"period in {len(leaves) * _BLOCK} partial quotients, the walk's bound")
    h, k, _ = _tree(leaves, d)
    s, hh, kk = h + k, h * h, k * k  # 2hk = s^2 - h^2 - k^2: squares only
    hk2, dkk = s * s - hh - kk, d * kk
    if Q_next == Q:
        x, y = (hh + dkk) * P_next + hk2 * d, hh + dkk + hk2 * P_next
        return x // (Q * Q), y // (Q * Q), -1, None
    return (hh + dkk) // Q, hk2 // Q, 1, (h, k, Q)


def _tree(leaves: list[tuple[int, int, int]], d: int) -> tuple[int, int, int]:
    """(A, B, Q_u) with theta_v/theta_u = (A + B*sqrt(d))/Q_u, from the leaves
    of adjacent spans from u to v, by a balanced tree so that big products
    pair numbers of equal size. A node takes three products, A1*A2, B1*B2 and
    (A1 + B1)*(A2 + B2), and divides by the inner Q_w: the product of its
    halves is Q_w times the leaf of its span, so a remainder raises
    ArithmeticError."""
    if len(leaves) == 1:
        return leaves[0]
    mid = len(leaves) // 2
    (A1, B1, Q_u), (A2, B2, Q_w) = _tree(leaves[:mid], d), _tree(leaves[mid:], d)
    AA, BB = A1 * A2, B1 * B2
    (A, rA), (B, rB) = divmod(AA + d * BB, Q_w), divmod((A1 + B1) * (A2 + B2) - AA - BB, Q_w)
    if rA or rB:
        raise ArithmeticError(f"a product of relative generators of Z[sqrt({d})] leaves a remainder mod Q_w")
    return A, B, Q_u
