"""The free associative algebra k<x, y>.

Words are plain strings over the alphabet "xy". An element is the same
sparse term map as a commutative polynomial (``spoly.Terms``), with words
as monomials: raw coefficients (residues over F_p, integer pairs over one
denominator over Q and Q(w)), and ``terms`` returns a new {word: Scalar}
dict of them. Products concatenate words, and terms print in ascending
(length, word) order. This is where inputs live before reduction to the
rank-18 normal form, and where linear changes of the two generators act.
``parse_free_expression`` reads an expression into one raw term map and
normalizes it once: a plain sum of monomial terms, such as ``str`` prints,
in one flat pass over its tokens, and any other text through the shared
``ExprParser`` on ``spoly.RawTerms`` values (a product with a lone word
only concatenates words, a sum accumulates in place), within a budget of
work.

Composition convention (frozen by the action-law test): substituting
g = (a b; c d) sends x -> a*x + c*y and y -> b*x + d*y, and
``linear_substitute(g, linear_substitute(h, e)) == linear_substitute(g*h, e)``
with g*h the ordinary matrix product. (The induced action on forms
composes the other way round; see forms.act_gl2.)
"""

from __future__ import annotations

from .errors import FieldMismatch, SingularMatrix
from .fields import FieldSpec
from .spoly import RawRing, RawTerms, Terms, raw_product

LETTERS = "xy"
_LETTER_NAMES = {letter: letter for letter in LETTERS}


def word_text(word: str) -> str:
    """Compress a word into power notation: 'xxyyx' -> 'x^2*y^2*x'."""
    if not word:
        return "1"
    parts = []
    i = 0
    while i < len(word):
        j = i
        while j < len(word) and word[j] == word[i]:
            j += 1
        parts.append(word[i] if j - i == 1 else f"{word[i]}^{j - i}")
        i = j
    return "*".join(parts)


class FreeElement(Terms):
    """An element of k<x, y>; monomials are words over ``LETTERS``."""

    __slots__ = ()

    # bound in this class's own namespace, where per-class instrumentation
    # (bench/tracer.py) replaces them
    __add__, __sub__, __neg__ = Terms.__add__, Terms.__sub__, Terms.__neg__
    __mul__, __pow__, scale = Terms.__mul__, Terms.__pow__, Terms.scale

    def __init__(self, field: FieldSpec, terms: dict):
        """``terms`` maps words over ``LETTERS`` to Scalars of ``field`` (or to
        values that ``field.scalar`` accepts); another key raises
        ``ValueError``."""
        for w in terms:
            if type(w) is not str or w.strip(LETTERS):
                raise ValueError(f"{w!r} is not a word in the letters {LETTERS}")
        super().__init__(field, LETTERS, terms)

    # -- monomials -------------------------------------------------------

    _mono_text = staticmethod(word_text)

    def _unit(self):
        return ""

    def _sorted_terms(self):
        return sorted(self.terms.items(), key=lambda item: (len(item[0]), item[0]))

    # -- constructors ---------------------------------------------------

    @staticmethod
    def zero(field):
        return FreeElement(field, {})

    @staticmethod
    def one(field):
        return FreeElement(field, {"": field.one()})

    @staticmethod
    def word(field, w: str, coeff=1):
        return FreeElement(field, {w: field.scalar(coeff)})

    @staticmethod
    def generator(field, letter: str):
        return FreeElement.word(field, letter)

    def homogeneous_parts(self) -> dict:
        parts = {}
        for w, c in self.raw.items():
            parts.setdefault(len(w), {})[w] = c
        return {n: self._make(t, self.den) for n, t in sorted(parts.items())}

    def to_json(self):
        return [{"word": w, "coeff": c.to_json()} for w, c in self._sorted_terms()]


def free_ring(field: FieldSpec) -> RawRing:
    """k<x, y> as the expression parser sees it: x and y are words."""
    return RawRing(FreeElement.zero(field), _LETTER_NAMES)


def parse_free_expression(text: str, field: FieldSpec) -> FreeElement:
    """Parse the expression grammar: x, y, w, integer and p/q literals,
    + - * ^ and parentheses. The expression is read into one raw term map
    and normalized once (``spoly.RawRing.parse``): a plain sum of monomial
    terms, such as ``str`` of an element or a text like
    ``(1/2-3*w)*x^2*y + 5*y``, in one flat pass over its tokens, and any
    other text, or one the flat pass refuses, through ``ExprParser`` on
    ``spoly.RawTerms`` values. That route charges ``DEFAULT_SCAN_BUDGET``
    work units and raises ``BudgetExceeded`` past them, so ``(x+y)^20``
    (2^20 words) or ``x^1000000000`` fails fast."""
    return free_ring(field).parse(text)


def linear_substitute(g, e: FreeElement) -> FreeElement:
    """Replace x by a*x + c*y and y by b*x + d*y throughout, then expand.

    ``g`` is a GL2Element (or anything with .field, .a, .b, .c, .d, .det).
    """
    if g.field != e.field:
        raise FieldMismatch(f"{g.field} vs {e.field}")
    if g.det.is_zero():
        raise SingularMatrix("substitution matrix must be invertible")
    field = e.field
    x, y = FreeElement.generator(field, "x"), FreeElement.generator(field, "y")
    images = {
        "x": x.scale(g.a) + y.scale(g.c),
        "y": x.scale(g.b) + y.scale(g.d),
    }
    cache = {"": FreeElement.one(field)}
    for w in e.raw:
        if w not in cache:
            # build up prefix images so shared prefixes are reused
            for i in range(1, len(w) + 1):
                prefix = w[:i]
                if prefix not in cache:
                    cache[prefix] = cache[prefix[:-1]] * images[prefix[-1]]
    total = RawTerms(e, {})
    for w, c in e.raw.items():
        total = total + raw_product(e, cache[w], {"": c}, e.den)
    return total.normalize()


# -- the distinguished elements -------------------------------------------

def alpha_element(field) -> FreeElement:
    """x^2*y + x*y*x + y*x^2, the u^2*v polarization sum."""
    return FreeElement(field, {w: field.one() for w in ("xxy", "xyx", "yxx")})


def beta_element(field) -> FreeElement:
    """x*y^2 + y*x*y + y^2*x, the u*v^2 polarization sum."""
    return FreeElement(field, {w: field.one() for w in ("xyy", "yxy", "yyx")})


def gamma_element(field) -> FreeElement:
    """(yx)^2 - x^2*y^2; equal to (xy)^2 - y^2*x^2 after reduction."""
    return FreeElement(field, {"yxyx": field.one(), "xxyy": -field.one()})


def delta_element(field) -> FreeElement:
    """y*x - w*x*y."""
    return FreeElement(field, {"yx": field.one(), "xy": -field.omega()})


def epsilon_element(field) -> FreeElement:
    """x*y*x + w*x^2*y + w^2*y*x^2."""
    w = field.omega()
    return FreeElement(field, {"xyx": field.one(), "xxy": w, "yxx": w * w})


def epsilon_commutators(field) -> tuple[FreeElement, FreeElement]:
    """eps*x - w*x*eps and eps*y - w*y*eps - (1-w)*gamma, both zero in the
    algebra."""
    w = field.omega()
    x, y = FreeElement.generator(field, "x"), FreeElement.generator(field, "y")
    eps = epsilon_element(field)
    return (
        eps * x - (x * eps).scale(w),
        eps * y - (y * eps).scale(w) - gamma_element(field).scale(field.one() - w),
    )


def s_element(field) -> FreeElement:
    """delta^3 - (3w(1-w)*x^3*y^3 + (1+2w^2)*alpha*beta)/2, the center
    coordinate with s^2 = gamma^3 + Delta/4."""
    w = field.omega()
    half = field.scalar(1) / field.scalar(2)
    d3 = delta_element(field) ** 3
    xy3 = FreeElement.word(field, "xxxyyy")
    ab = alpha_element(field) * beta_element(field)
    shift = xy3.scale(field.scalar(3) * w * (field.one() - w)) + ab.scale(
        field.one() + field.scalar(2) * w * w
    )
    return d3 - shift.scale(half)
