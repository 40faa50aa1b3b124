"""Closed-form sharp bounds evaluated from a generator 2-jet.

All formulas are real arithmetic on (d1, d2) = (Phi'(0), Phi''(0));
a complex Fekete-Szego weight is admitted.  Bounds stay computable when
an applicability condition fails -- the report then flags them as
not-asserted so oracle experiments can probe beyond the hypotheses.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .phi import Jet2, PhiSpec, condition_t22, condition_t31, jet2
from .toeplitz import jsonable


def fekete_szego_bound(jet: Jet2, lam: complex) -> float:
    """(d1/2) * max{1, |d2/(2 d1) + (1 - 2 lam) d1|}."""
    return (jet.d1 / 2) * max(1.0, abs(jet.d2 / (2 * jet.d1) + (1 - 2 * lam) * jet.d1))


def t22_bound(jet: Jet2) -> float:
    """Sharp bound on |det T_{2,2}| = |b2^2 - b3^2|."""
    e = jet.d2 / (2 * jet.d1)
    return (jet.d1**2 / 4) * (e + jet.d1) ** 2 + jet.d1**2


def t31_bound(jet: Jet2) -> float:
    """Sharp bound on |det T_{3,1}| = |2 b2^2 b3 - 2 b2^2 - b3^2 + 1|."""
    e = jet.d2 / (2 * jet.d1)
    return 1 + 2 * jet.d1**2 + (jet.d1**2 / 4) * (3 * jet.d1 - e) * (e + jet.d1)


@dataclass
class BoundReport:
    family: str
    d1: float
    d2: float
    cond_t22: bool
    cond_t31: bool
    t22: float | None
    t31: float | None
    fs_lambda_table: list = field(default_factory=list)

    def to_json_dict(self) -> dict:
        d = jsonable(self)
        d["fs"] = [{"lambda_re": re, "lambda_im": im, "bound": b}
                   for (re, im), b in d.pop("fs_lambda_table")]
        return d


def report(phi: PhiSpec, lam_list=()) -> BoundReport:
    """Assemble conditions, asserted bounds, and a Fekete-Szego table.

    Bounds whose condition fails are reported as None (not asserted).
    """
    j = jet2(phi)
    c22 = condition_t22(phi)
    c31 = condition_t31(phi)
    fs = [(complex(lam), fekete_szego_bound(j, complex(lam))) for lam in lam_list]
    return BoundReport(
        family=phi.label(),
        d1=j.d1,
        d2=j.d2,
        cond_t22=c22,
        cond_t31=c31,
        t22=t22_bound(j) if c22 else None,
        t31=t31_bound(j) if c31 else None,
        fs_lambda_table=fs,
    )
