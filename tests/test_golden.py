"""CLI stdout pinned byte for byte against committed golden files.

The goldens cover ``search`` (CSV and JSON, binary with simple roots,
repeated roots, nonbinary fields, a cap that skips pairs), ``factor
--json`` (extension fields up to GF(2^504) and GF(3^100), at n = 1009
over GF(2) and n = 404 over GF(3); GF(2^260) at n = 131 over GF(16),
whose trace digits are solved on 4 columns of two-byte slots; GF(3^82) at n = 83 over GF(9), two
cosets of 41, and GF(5^4) at n = 26 over GF(25), a base field past the
minimal polynomials' lookup lists; n = 509 over GF(2) and n = 202 over
GF(3), whose cosets are all full and whose factors are cyclotomic
polynomials mod p, and n = 523 over GF(2), all full too though its
root-of-unity extension GF(2^522) is past the degree bound; and GF(257) itself, where every factor is linear),
``exists --json`` (infeasible
and repeated-root cases, among them the cold single-factor queries at
n = 4096 over GF(2) and n = 2187 over GF(3), n = 512 over GF(65537),
where every factor is linear, and n = 255 over GF(256) and n = 85 over
GF(16), whose witnesses are products over extension fields of
characteristic 2), and, over GF(2), GF(3)
and GF(4), ``code --dual``, ``pair --distances``, the three ``construct``
modes (exact and inexact L) and ``verify-tables``, all as JSON.  A further golden pins
the lex-least modulus of every field ``factor_xn1(n, GF(q))`` builds for
n <= 64 and q in {2, 3, 4, 5, 8, 9}: the modulus fixes alpha and with it
the whole factor labelling.  To regenerate them after a deliberate
output change, run ``PYTHONPATH=src python tests/test_golden.py`` from
the repository root.  ``search_n63_ell0_json.txt`` and
``search_n63_ell9_json.txt`` (``search --n 63 --ell 0 --json`` and ``--ell
9``) are left out of ``CASES`` for their running time; only CI compares
them.  Regenerate one with ``PYTHONPATH=src python -m cyclic_pairs.cli
search --n 63 --ell 9 --json > tests/golden/search_n63_ell9_json.txt``.
``exists_n4096_q65537_ell2049_json.txt`` (``--q 65537 exists --n 4096
--ell 2049 --json``, a cold chain over 4 096 linear factors) is left out
the same way and compared by CI only.
"""

import contextlib
import io
import pathlib
import sys

import pytest

from cyclic_pairs.cli import EXIT_OK, main
from cyclic_pairs.cyclotomic import mult_order
from cyclic_pairs.fields import field_from_order, lex_least_irreducible

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"

CASES = {
    "factor_n15_q2": "factor --n 15 --json",
    "factor_n12_q3": "--q 3 factor --n 12 --json",
    "factor_n9_q4": "--q 4 factor --n 9 --json",
    "factor_n10_q5": "--q 5 factor --n 10 --json",
    "factor_n20_q9": "--q 9 factor --n 20 --json",
    "factor_n37_q5": "--q 5 factor --n 37 --json",
    "factor_n59_q8": "--q 8 factor --n 59 --json",
    "factor_n63_q4": "--q 4 factor --n 63 --json",
    "factor_n202_q3": "--q 3 factor --n 202 --json",
    "factor_n404_q3": "--q 3 factor --n 404 --json",
    "factor_n83_q9": "--q 9 factor --n 83 --json",
    "factor_n26_q25": "--q 25 factor --n 26 --json",
    "factor_n124_q81": "--q 81 factor --n 124 --json",
    "factor_n509_q2": "factor --n 509 --json",
    "factor_n1009_q2": "factor --n 1009 --json",
    "factor_n131_q16": "--q 16 factor --n 131 --json",
    "factor_n523_q2": "factor --n 523 --json",
    "factor_n5_q4099": "--q 4099 factor --n 5 --json",
    "factor_n7_q1021": "--q 1021 factor --n 7 --json",
    "factor_n256_q257": "--q 257 factor --n 256 --json",
    "exists_n23_ell2_json": "exists --n 23 --ell 2 --json",
    "exists_n54_q3_ell20_json": "--q 3 exists --n 54 --ell 20 --json",
    "exists_n63_q9_ell31_json": "--q 9 exists --n 63 --ell 31 --json",
    "exists_n48_ell17_json": "exists --n 48 --ell 17 --json",
    "exists_n4096_ell4095_json": "exists --n 4096 --ell 4095 --json",
    "exists_n2187_q3_ell2000_json": "--q 3 exists --n 2187 --ell 2000 --json",
    "exists_n512_q65537_ell300_json": "--q 65537 exists --n 512 --ell 300 --json",
    "exists_n255_q256_ell128_json": "--q 256 exists --n 255 --ell 128 --json",
    "exists_n85_q16_ell40_json": "--q 16 exists --n 85 --ell 40 --json",
    "search_n7_ell1_csv": "search --n 7 --ell 1 --csv",
    "search_n7_ell1_json": "search --n 7 --ell 1 --json",
    "search_n15_ell0_csv": "search --n 15 --ell 0 --csv",
    "search_n15_ell3_json": "search --n 15 --ell 3 --json",
    "search_n21_ell0_csv": "search --n 21 --ell 0 --csv",
    "search_n21_ell5_json": "search --n 21 --ell 5 --json",
    "search_n31_ell0_cap_json": "search --n 31 --ell 0 --cap 4096 --json",
    "search_n45_ell0_json": "search --n 45 --ell 0 --json",
    "search_n12_q2_ell4_csv": "--q 2 search --n 12 --ell 4 --csv",
    "search_n12_q2_ell4_json": "--q 2 search --n 12 --ell 4 --json",
    "search_n9_q3_ell3_csv": "--q 3 search --n 9 --ell 3 --csv",
    "search_n9_q3_ell3_mind_text": "--q 3 search --n 9 --ell 3 --min-d1 3 --min-d2 3",
    "search_n6_q4_ell2_csv": "--q 4 search --n 6 --ell 2 --csv",
    "search_n6_q4_ell2_json": "--q 4 search --n 6 --ell 2 --json",
    "code_n15_dual_json": "code --n 15 --g x^4+x+1 --dual --min-distance --json",
    "code_n14_dual_json": "code --n 14 --g x^6+x^2+1 --dual --json",
    "code_n8_q3_dual_json": "--q 3 code --n 8 --g x^2+x+2 --dual --min-distance --json",
    "code_n8_q3_nonmonic_dual_json": "--q 3 code --n 8 --g 2*x^2+2*x+1 --dual --json",
    "code_n15_q4_dual_json": "--q 4 code --n 15 --g x^2+2*x+2 --dual --min-distance --json",
    "code_n6_q4_dual_json": "--q 4 code --n 6 --g x^2+1 --dual --min-distance --json",
    "pair_n7_json": "pair --n 7 --g1 x^3+x+1 --g2 x^3+x^2+1 --distances --json",
    "pair_n14_json": "pair --n 14 --g1 x^6+x^2+1 --g2 x^4+x^2+x+1 --distances --json",
    "pair_n8_q3_json": "--q 3 pair --n 8 --g1 x^2+x+2 --g2 x^3+x+2 --distances --json",
    "pair_n9_q4_json": "--q 4 pair --n 9 --g1 x^3+2 --g2 x^4+2*x^3+3*x+1 --distances --json",
    "construct_L_n7_json": "construct --mode L --n 7 --L x+1 --g1 x^3+x+1 --g2 x^3+x+1 --json",
    "construct_L_n18_inexact_json":
        "construct --mode L --n 18 --L x+1 --g1 x^2+x+1 --g2 1 --distances --json",
    "construct_L_n8_q3_json":
        "--q 3 construct --mode L --n 8 --L x+2 --g1 x^2+x+2 --g2 x^2+x+2 --json",
    "construct_L_n6_q4_inexact_json": "--q 4 construct --mode L --n 6 --L x+1 --g1 x+2 --g2 1 --json",
    "construct_repeated_n7_json": "construct --mode repeated --n-prime 7 --nu 1 --L x+1 "
                                  "--g1 x^3+x+1 --g2 x^3+x+1 --s 2 --distances --json",
    "construct_repeated_n8_q3_json": "--q 3 construct --mode repeated --n-prime 8 --nu 1 "
                                     "--L x+2 --g1 x^2+x+2 --g2 x^2+x+2 --s 3 --json",
    "construct_repeated_n3_q4_json": "--q 4 construct --mode repeated --n-prime 3 --nu 1 "
                                     "--L x+1 --g1 x+2 --g2 x^2+3 --s 2 --json",
    "construct_mds_n1_q2_json": "construct --mode mds --n 1 --k1 1 --k2 1 --ell 1 --distances --json",
    "construct_mds_n2_q3_json":
        "--q 3 construct --mode mds --n 2 --k1 1 --k2 1 --ell 0 --distances --json",
    "construct_mds_n3_q4_json":
        "--q 4 construct --mode mds --n 3 --k1 1 --k2 2 --ell 1 --distances --json",
    "construct_mds_n7_q8_json":
        "--q 8 construct --mode mds --n 7 --k1 2 --k2 3 --ell 1 --distances --json",
    "verify_tables_json": "verify-tables --json",
}


def cli_stdout(argv: str) -> bytes:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv.split())
    assert code == EXIT_OK, argv
    return buf.getvalue().encode()


MODULI_GOLDEN = GOLDEN_DIR / "lex_least_moduli.txt"
MODULI_QS = (2, 3, 4, 5, 8, 9)
MODULI_MAX_N = 64


def swept_field_degrees() -> list[tuple[int, int]]:
    """(p, m) of GF(q) and of the root-of-unity extension GF(q^t), t = ord_n'(q)."""
    out = set()
    for q in MODULI_QS:
        f = field_from_order(q)
        for n in range(1, MODULI_MAX_N + 1):
            n_prime = n
            while n_prime % f.p == 0:
                n_prime //= f.p
            out.update({(f.p, f.m), (f.p, f.m * mult_order(q, n_prime))})
    return sorted(out)


def moduli_text() -> bytes:
    """One line "p m: c0 c1 ... cm" per field, coefficients ascending."""
    return "".join(f"{p} {m}: {' '.join(map(str, lex_least_irreducible(p, m)))}\n"
                   for p, m in swept_field_degrees()).encode()


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(name):
    expected = (GOLDEN_DIR / f"{name}.txt").read_bytes()
    assert cli_stdout(CASES[name]) == expected


def test_lex_least_moduli_match_golden():
    assert moduli_text() == MODULI_GOLDEN.read_bytes()


if __name__ == "__main__":
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name, argv in CASES.items():
        (GOLDEN_DIR / f"{name}.txt").write_bytes(cli_stdout(argv))
        print(f"wrote {name}.txt", file=sys.stderr)
    MODULI_GOLDEN.write_bytes(moduli_text())
    print(f"wrote {MODULI_GOLDEN.name}", file=sys.stderr)
