"""Exact bivariate Laurent polynomials in (q, t) and q-special-function primitives.

A LaurentPoly2 is a sparse dictionary {(e_q, e_t): coeff} with arbitrary-precision
integer coefficients and integer (possibly negative) exponents.  No floating
point is used anywhere; evaluation is exact.  The canonical term
order, used by every printed or serialized form, is lexicographic ascending by
(e_q, e_t).  Text and JSON are output only: the library reads no polynomial
back.
"""


class UnsupportedSubstitutionError(ValueError):
    """Raised when a substitution image is not a unit monomial."""


class LaurentPoly2:
    """Sparse Laurent polynomial in q and t with integer coefficients.

    Immutable by convention: no method mutates self, and the term dict must not
    be modified after construction.  Zero coefficients are never stored.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        t = {}
        if terms:
            for (eq, et), c in terms.items():
                if c:
                    t[(int(eq), int(et))] = int(c)
        self.terms = t

    @classmethod
    def _adopt(cls, terms):
        """Take ownership of a freshly built dict of nonzero int coefficients.

        Neither copies nor re-validates: the caller must hand over int keys
        and nonzero int values, and never touch the dict again.
        """
        self = cls.__new__(cls)
        self.terms = terms
        return self

    # -- constructors ------------------------------------------------------

    @staticmethod
    def const(c):
        return LaurentPoly2({(0, 0): c})

    @staticmethod
    def monomial(c, eq, et):
        return LaurentPoly2({(eq, et): c})

    # -- ring structure ----------------------------------------------------

    def _coerce(other):
        if isinstance(other, LaurentPoly2):
            return other
        if isinstance(other, int):
            return LaurentPoly2.const(other)
        return NotImplemented

    def __add__(self, other):
        other = LaurentPoly2._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out = dict(self.terms)
        for k, c in other.terms.items():
            s = out.get(k, 0) + c
            if s:
                out[k] = s
            else:
                del out[k]
        return LaurentPoly2._adopt(out)

    __radd__ = __add__

    def __neg__(self):
        return LaurentPoly2._adopt({k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        other = LaurentPoly2._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = LaurentPoly2._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out = {}
        for (a1, b1), c1 in self.terms.items():
            for (a2, b2), c2 in other.terms.items():
                k = (a1 + a2, b1 + b2)
                s = out.get(k, 0) + c1 * c2
                if s:
                    out[k] = s
                elif k in out:
                    del out[k]
        return LaurentPoly2._adopt(out)

    __rmul__ = __mul__

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise ValueError("only nonnegative integer powers")
        # square only while bits remain, and start from the first factor
        result = None
        base = self
        while n:
            if n & 1:
                result = base if result is None else result * base
            n >>= 1
            if n:
                base = base * base
        return ONE if result is None else result

    def __eq__(self, other):
        other = LaurentPoly2._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(tuple(sorted(self.terms.items())))

    def __bool__(self):
        return bool(self.terms)

    # -- queries -----------------------------------------------------------

    def is_polynomial(self):
        """True if no negative exponent occurs (element of Z[q,t])."""
        return all(a >= 0 and b >= 0 for (a, b) in self.terms)

    def is_pure_q(self):
        return all(b == 0 for (_, b) in self.terms)

    def below_t(self, t_prec):
        """The terms below t^t_prec."""
        return LaurentPoly2._adopt({k: c for k, c in self.terms.items() if k[1] < t_prec})

    # -- substitution and evaluation ----------------------------------------

    def substitute(self, q_image, t_image):
        """Exact substitution q -> q_image, t -> t_image.

        Both images must be monomials with coefficient +-1 (the only
        substitutions the formulas need: t -> t^2, t -> q^-d t^-1, t -> -t...).
        """
        qi = _as_unit_monomial(q_image, "q_image")
        ti = _as_unit_monomial(t_image, "t_image")
        (qs, qa, qb), (ts, ta, tb) = qi, ti
        out = {}
        for (a, b), c in self.terms.items():
            k = (a * qa + b * ta, a * qb + b * tb)
            sign = (qs ** (a & 1)) * (ts ** (b & 1))
            s = out.get(k, 0) + sign * c
            if s:
                out[k] = s
            elif k in out:
                del out[k]
        return LaurentPoly2._adopt(out)

    def eval_int(self, q_val, t_val=1):
        """Exact value at integer q and rational t: an int when q and t are
        ints and no exponent is negative, otherwise a Fraction.

        A zero base with a negative exponent is a domain error.
        """
        if type(q_val) is int and type(t_val) is int and all(
                a >= 0 and b >= 0 for a, b in self.terms):
            return sum(c * q_val**a * t_val**b for (a, b), c in self.terms.items())
        from fractions import Fraction  # here, so that importing the package does not pay for it
        q_val = Fraction(q_val)
        t_val = Fraction(t_val)
        total = Fraction(0)
        for (a, b), c in self.terms.items():
            if a < 0 and q_val == 0:
                raise ZeroDivisionError("q=0 with negative q-exponent")
            if b < 0 and t_val == 0:
                raise ZeroDivisionError("t=0 with negative t-exponent")
            total += c * q_val**a * t_val**b
        return total

    # -- serialization -------------------------------------------------------

    def sorted_terms(self):
        return sorted(self.terms.items())

    def __str__(self):
        if not self.terms:
            return "0"
        pieces = []
        for (a, b), c in self.sorted_terms():
            mono = _monomial_str(abs(c), a, b)
            if not pieces:
                pieces.append(("-" if c < 0 else "") + mono)
            else:
                pieces.append(("- " if c < 0 else "+ ") + mono)
        return " ".join(pieces)

    __repr__ = __str__

    def grouped_str(self):
        """Table-style form, terms grouped by t-degree (see grouped_text)."""
        return grouped_text(self.terms)

    def to_json_obj(self):
        return {
            "vars": ["q", "t"],
            "terms": [[a, b, str(c)] for (a, b), c in self.sorted_terms()],
        }


def _as_unit_monomial(p, what):
    """Return (sign, e_q, e_t) for a +-1-coefficient monomial, else raise."""
    if isinstance(p, int):
        p = LaurentPoly2.const(p)
    if len(p.terms) != 1:
        raise UnsupportedSubstitutionError("%s must be a monomial" % what)
    ((eq, et), c), = p.terms.items()
    if c not in (1, -1):
        raise UnsupportedSubstitutionError("%s must have unit coefficient" % what)
    return (c, eq, et)


def _monomial_str(c, a, b, var="q"):
    parts = []
    if a:
        parts.append(var if a == 1 else "%s^%d" % (var, a))
    if b:
        parts.append("t" if b == 1 else "t^%d" % b)
    if abs(c) != 1 or not parts:
        parts.insert(0, str(abs(c)))
    s = "*".join(parts)
    return "-" + s if c < 0 else s


def grouped_text(terms, var="q"):
    """Table-style text of a {(e_var, e_t): coeff} dict.

    Terms are grouped by t-degree, ascending in var within a group.  A
    multi-term group is parenthesized; when the lowest term of a group is
    negative a single minus is factored out, e.g. `1 - (q^2 + q^3)*t^3`.
    """
    groups = {}
    for (a, b), c in terms.items():
        groups.setdefault(b, []).append((a, c))
    if not groups:
        return "0"
    pieces = []
    for b in sorted(groups):
        items = sorted(groups[b])
        neg = items[0][1] < 0
        if neg:
            items = [(a, -c) for a, c in items]
        if len(items) == 1:
            a, c = items[0]
            body = _monomial_str(c, a, b, var=var)
        else:
            inner = []
            for a, c in items:
                m = _monomial_str(abs(c), a, 0, var=var)
                inner.append(("- " if c < 0 else "+ ") + m if inner else ("-" if c < 0 else "") + m)
            body = "(" + " ".join(inner) + ")"
            if b:
                body += "*" + ("t" if b == 1 else "t^%d" % b)
        pieces.append(("- " if neg else "+ ") + body)
    head = pieces[0]
    head = "-" + head[2:] if head.startswith("- ") else head[2:]
    return " ".join([head] + pieces[1:])


ZERO = LaurentPoly2()
ONE = LaurentPoly2.const(1)
Q = LaurentPoly2.monomial(1, 1, 0)
T = LaurentPoly2.monomial(1, 0, 1)
QINV = LaurentPoly2.monomial(1, -1, 0)


# -- q-special functions ----------------------------------------------------


def qpochhammer(x, step, n):
    """Finite q-Pochhammer (x; step)_n = prod_{k=0}^{n-1} (1 - x*step^k)."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    x = LaurentPoly2._coerce(x)
    step = LaurentPoly2._coerce(step)
    result = ONE
    xk = x
    for _ in range(n):
        result = result * (ONE - xk)
        xk = xk * step
    return result


_QBINOM_CACHE = {(0, 0): ONE}


def qbinomial(n, r):
    """Gaussian binomial [n r]_q via the q-Pascal recurrence, memoized.

    [n r] = [n-1 r-1] + q^r [n-1 r].  Domain error when r > n or r < 0.
    """
    if r < 0 or r > n:
        raise ValueError("require 0 <= r <= n")
    if r == 0 or r == n:
        return ONE
    key = (n, r)
    got = _QBINOM_CACHE.get(key)
    if got is None:
        got = qbinomial(n - 1, r - 1) + LaurentPoly2.monomial(1, r, 0) * qbinomial(n - 1, r)
        _QBINOM_CACHE[key] = got
    return got


def qpoch_qinv_ratio(n, k):
    """(q^-1;q^-1)_n / (q^-1;q^-1)_{n-k} assembled division-free.

    Equals (q^{k-n-1}; q^-1)_k = prod_{j=n-k+1}^{n} (1 - q^-j); needs 0 <= k <= n.
    """
    if not 0 <= k <= n:
        raise ValueError("require 0 <= k <= n")
    return qpochhammer(LaurentPoly2.monomial(1, k - n - 1, 0), QINV, k)
