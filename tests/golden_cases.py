"""The argv of each pinned CLI case and where its expected bytes live.

Shared by test_golden, which pins the bytes, and test_src_callers, which
drives the same commands under a profile.
"""

from importlib import resources
from pathlib import Path

DATA = resources.files("epsilon_lab").joinpath("data")
GOLDEN = Path(__file__).parent / "data"

CASES = {
    "gauss": ["gauss", "--p", "3", "--q", "3", "--c", "1"],
    # the complex display: a Gauss sum over F_9 and one over F_49 with a real value
    "gauss_f9": ["gauss", "--p", "3", "--q", "9", "--c", "1,1"],
    "gauss_f49": ["gauss", "--p", "7", "--q", "49", "--c", "3"],
    "eps_local": ["eps-local"],
    # a punctual factor: the inverse of its eigenvalues' product, conductor minus the rank
    "eps_local_punctual": ["eps-local", "--kind", "punctual", "--char", str(GOLDEN / "punctual_char.json")],
    "eps_global": ["eps-global", "--spec", str(DATA / "product_spec.json")],
    "product_check": ["product-check", "--second-ell"],
    # infinity in the domain: it is a closed point of degree 1 like any other
    "product_check_infinity": ["product-check", "--second-ell", "--spec", str(GOLDEN / "infinity_spec.json")],
    "eps_global_infinity": ["eps-global", "--spec", str(GOLDEN / "infinity_spec.json")],
    # over F_9, whose modulus has no root 0, with a puncture of degree 2:
    # the embeddings scan for a root, and a point has a residue field of its own
    "product_check_f9": ["product-check", "--second-ell", "--spec", str(GOLDEN / "f9_spec.json")],
    "eps_global_f9": ["eps-global", "--spec", str(GOLDEN / "f9_spec.json")],
    # t dt / (t^2 + 1): a zero at the puncture 0 and a pole at a point of
    # degree 2 off the punctures, so the local factors leave the punctures
    "product_check_form": ["product-check", "--second-ell", "--omega", str(GOLDEN / "form_omega.json")],
    "induction_check": ["induction-check"],
    "twisted_check": ["twisted-check", "--trials", "3", "--seed", "9"],
    # the default 100 randomized trials, as the benchmark's twisted-suite runs them
    "twisted_check_default": ["twisted-check", "--seed", "1"],
    # a second coefficient field: p 5 and order 4 give ell 41
    "twisted_check_ell41": ["twisted-check", "--p", "5", "--orders", "4", "--trials", "20", "--seed", "7"],
}
