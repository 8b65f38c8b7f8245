"""Structured pass/fail records for identity checks."""

import time


class BudgetExceededError(RuntimeError):
    """An enumeration hit its work cap; carries the progress made so far."""

    def __init__(self, message, progress=None):
        super().__init__(message)
        self.progress = progress


class VerificationReport:
    """Outcome of one identity check.

    status is 'pass', 'fail', or 'reported' ('reported' is reserved for
    conjecture-level checks, which never fail a suite).  A failing report must
    carry the first discrepancy locator (an exponent pair).
    """

    def __init__(self, name, params, status, lhs="", rhs="", discrepancy=None,
                 wall_time=0.0, detail=""):
        if status not in ("pass", "fail", "reported"):
            raise ValueError("bad status %r" % status)
        if status == "fail" and discrepancy is None:
            raise ValueError("failing report needs a discrepancy locator")
        self.name = name
        self.params = dict(params)
        self.status = status
        self.lhs = lhs
        self.rhs = rhs
        self.discrepancy = discrepancy
        self.wall_time = wall_time
        self.detail = detail

    @property
    def passed(self):
        return self.status == "pass"

    def __str__(self):
        ps = " ".join("%s=%s" % kv for kv in sorted(self.params.items()))
        line = "[%s] %s %s" % (self.status.upper(), self.name, ps)
        if self.status == "fail":
            line += " first-discrepancy=%s" % (self.discrepancy,)
        if self.detail:
            line += " (%s)" % self.detail
        return line

    __repr__ = __str__

    def to_json_obj(self):
        return {
            "check": self.name,
            "params": {k: str(v) for k, v in self.params.items()},
            "status": self.status,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "discrepancy": list(self.discrepancy) if self.discrepancy is not None else None,
            "wall_time_ms": round(self.wall_time * 1000, 3),
            "detail": self.detail,
        }


def require(low, **values):
    """Reject the first of values below low, by name: "t_prec must be at least 1, got 0"."""
    for name, value in values.items():
        if value < low:
            raise ValueError("%s must be at least %d, got %d" % (name, low, value))


class timed:
    """Context manager measuring wall time for a report; elapsed reads the
    time so far inside the block and the block's time after it."""

    def __enter__(self):
        self.start = time.perf_counter()
        self.stop = None
        return self

    def __exit__(self, *exc):
        self.stop = time.perf_counter()
        return False

    @property
    def elapsed(self):
        return (time.perf_counter() if self.stop is None else self.stop) - self.start


def compare_report(name, params, lhs, rhs, lhs_text=None, rhs_text=None,
                   conjectural=False):
    """Build a report from two comparable exact objects.

    Objects must support == and, on mismatch, a first-discrepancy scan via
    their term/coefficient dicts (LaurentPoly2 or TruncSeries2).  Equal objects
    of one type print the same text, so an equal pair is rendered once.
    """
    with timed() as tm:
        equal = lhs == rhs
    if conjectural:
        status = "reported"
        detail = "agrees" if equal else "disagrees"
    else:
        status = "pass" if equal else "fail"
        detail = ""
    disc = None if equal else first_discrepancy(lhs, rhs)
    left = str(lhs) if lhs_text is None else lhs_text
    if rhs_text is None:
        same = equal and lhs_text is None and type(lhs) is type(rhs)
        rhs_text = left if same else str(rhs)
    return VerificationReport(name, params, status, lhs=left, rhs=rhs_text,
                              discrepancy=disc, wall_time=tm.elapsed, detail=detail)


def first_discrepancy(lhs, rhs):
    """Smallest exponent pair where two exact objects differ."""
    a = getattr(lhs, "terms", None)
    if a is None:
        a = getattr(lhs, "coeffs", {})
    b = getattr(rhs, "terms", None)
    if b is None:
        b = getattr(rhs, "coeffs", {})
    diffs = sorted(k for k in set(a) | set(b) if a.get(k, 0) != b.get(k, 0))
    return diffs[0] if diffs else (0, 0)
