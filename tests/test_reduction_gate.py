"""Reduction mod split primes as a gate of Q(w) answers.

For p = 1 (mod 3), Z[w] -> F_p with w sent to the package's omega_p is a
ring map, so an answer over Q(w) must reduce to an answer over F_p wherever
p divides no denominator and the reduced form stays nondegenerate
(``oracles.reduce_mod`` returns None elsewhere, and such a prime is
skipped). The gate is one-way: a Q(w) stabilizer element, orbit witness or
lambda-kernel point must reduce to one over F_p, but the reduced form may
gain symmetries, so a smaller Q(w) answer is not contradicted.

The forms are g.(c0, 0, 0, c3): their Hessian splits, so ``stabilizer`` and
``orbit_equivalent`` answer them over Q(w), and the Jacobian constant
Delta/4 = -27*(c0*c3*det(g)^3)^2/4 is a square in Q(w), where -3 is one, so
both affine lambda-kernel points (0, +-sqrt(Delta/4)) exist. Each family has a negative
control, one entry of the answer shifted by 1, that must fail at every
usable prime.
"""

import functools
import random

import pytest
from conftest import QW, rand_gl2
from oracles import reduce_mod

from cubiclifford.curves import EllipticPoint, jacobian_constant, lambda_isogeny, lambda_kernel
from cubiclifford.errors import CurveMismatch, SingularMatrix
from cubiclifford.fields import FieldSpec
from cubiclifford.forms import BinaryCubicForm, GL2Element, act_gl2, orbit_equivalent, stabilizer

PRIMES = (7, 13, 19, 31, 37, 43, 61, 67, 73, 79)  # the ten p = 1 (mod 3) below 80
FORMS = 60
COEFFS = [c for c in range(-9, 10) if c]


class Case:
    """One seeded form f with its Q(w) answers: the stabilizer, the witness
    of f ~ h.f and the two affine lambda-kernel points."""

    def __init__(self, rng):
        c0, c3 = rng.choice(COEFFS), rng.choice(COEFFS)
        self.f = act_gl2(rand_gl2(QW, rng), BinaryCubicForm(QW, (c0, 0, 0, c3)))
        self.hf = act_gl2(rand_gl2(QW, rng), self.f)
        self.stab = stabilizer(self.f).elements
        answer, self.witness = orbit_equivalent(self.f, self.hf)
        assert answer is True
        kernel = lambda_kernel(QW, jacobian_constant(self.f))
        self.points = [pt for pt in kernel if not pt.is_infinity()]
        assert len(self.points) == 2


@functools.lru_cache(maxsize=None)
def cases():
    rng = random.Random("reduction-gate")
    return tuple(Case(rng) for _ in range(FORMS))


def shifted(g: GL2Element) -> GL2Element:
    """g with its first entry that keeps it invertible shifted by 1."""
    for k in range(4):
        entries = list(g.entries())
        entries[k] = entries[k] + QW.one()
        try:
            return GL2Element(QW, entries)
        except SingularMatrix:
            continue
    raise AssertionError(f"no shifted entry of {g} is invertible")


def shifted_point(pt: EllipticPoint) -> EllipticPoint:
    """pt with gamma shifted by 1: (1, s) with s^2 = A is off the curve, so
    it is built without the constructor's check."""
    gamma, s = pt.xy
    off = object.__new__(EllipticPoint)
    off.field, off.curve_a, off.xy = pt.field, pt.curve_a, (gamma + QW.one(), s)
    return off


def stabilizer_gate(f, elements, p, omega):
    """Every element reduces to a distinct element of the F_p stabilizer."""
    fp = reduce_mod(f, p, omega)
    images = [reduce_mod(g, p, omega) for g in elements]
    if fp is None or any(m is None for m in images):
        return None
    return len(set(images)) == len(images) and set(images) <= set(stabilizer(fp).elements)


def orbit_gate(f, hf, witness, p, omega):
    """The reduced witness carries the reduced f to the reduced h.f, and F_p
    also answers True."""
    fp, target, m = (reduce_mod(x, p, omega) for x in (f, hf, witness))
    if fp is None or target is None or m is None:
        return None
    return act_gl2(m, fp) == target and orbit_equivalent(fp, target)[0] is True


def kernel_gate(f, points, p, omega):
    """Every point reduces onto the reduced Jacobian and lambda kills it."""
    fp = reduce_mod(f, p, omega)
    if fp is None:
        return None
    try:
        images = [reduce_mod(pt, p, omega) for pt in points]
    except CurveMismatch:
        return False
    return all(
        pt.curve_a == jacobian_constant(fp) and lambda_isogeny(pt).is_infinity() for pt in images
    )


def answers(case, corrupt):
    """The gate, and the arguments after f, of each family; with
    ``corrupt``, one entry of the answer shifted by 1."""
    stab, witness, points = case.stab, case.witness, case.points
    if corrupt:
        stab = [shifted(stab[0]), *stab[1:]]
        witness = shifted(witness)
        points = [shifted_point(points[0]), points[1]]
    return {
        "stabilizer": (stabilizer_gate, (stab,)),
        "orbit": (orbit_gate, (case.hf, witness)),
        "kernel": (kernel_gate, (points,)),
    }


def run_gate(family, corrupt):
    """The (form index, p, verdict) of every usable check of ``family``."""
    out = []
    for k, case in enumerate(cases()):
        gate, args = answers(case, corrupt)[family]
        for p in PRIMES:
            verdict = gate(case.f, *args, p, FieldSpec.prime(p).omega())
            if verdict is not None:
                out.append((k, p, verdict))
    return out


# the usable (form, prime) checks of each family: of the 600, the reduced
# form is degenerate at 42, and p divides a denominator of a stabilizer
# element or of the witness at the rest of the gap
USABLE = {"stabilizer": 540, "orbit": 530, "kernel": 558}


@pytest.mark.parametrize("family", sorted(USABLE))
def test_q_w_answers_reduce_to_f_p_answers(family):
    checks = run_gate(family, corrupt=False)
    assert len(checks) == USABLE[family]
    assert [c for c in checks if not c[2]] == []


@pytest.mark.parametrize("family", sorted(USABLE))
def test_an_answer_shifted_by_one_fails_at_every_usable_prime(family):
    checks = run_gate(family, corrupt=True)
    assert len(checks) >= USABLE[family] * 9 // 10
    assert [c for c in checks if c[2]] == []
