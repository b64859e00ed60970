"""CLI and product JSON over Q(w) with fractional coefficients, frozen.

``golden_qw.json`` holds ten expressions with coefficients a + b*w whose
parts have denominators 1-6, the stdout, stderr and exit code of
``cubiclifford reduce`` on each and of ``verify-identities --field Qw``,
and the JSON of ``GenericCliffordAlgebra.mul`` on ten pairs of their normal
forms. Any drift in canonical printing or in the arithmetic shows here.
"""

import json
from pathlib import Path

import pytest

from cubiclifford.cli import emit_json, main
from cubiclifford.fields import FieldSpec
from cubiclifford.freealg import parse_free_expression
from cubiclifford.gca import GenericCliffordAlgebra

GOLDEN = json.loads((Path(__file__).parent / "golden_qw.json").read_text())
QW = FieldSpec.cyclotomic()


@pytest.mark.parametrize("case", GOLDEN["cli"], ids=lambda case: case["argv"][0])
def test_cli_output_is_frozen(capsys, case):
    code = main(list(case["argv"]))
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (case["code"], case["stdout"], case["stderr"])


def test_mul_json_is_frozen():
    alg = GenericCliffordAlgebra(QW)
    forms = [alg.reduce(parse_free_expression(e, QW)) for e in GOLDEN["expressions"]]
    for case in GOLDEN["mul"]:
        product = alg.mul(forms[case["left"]], forms[case["right"]])
        assert emit_json(product.to_json()) == case["json"]
