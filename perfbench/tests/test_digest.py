import json
import os
import subprocess
import sys
from pathlib import Path

from guttstar.liealg import sl2
from guttstar.pbw import star_pbw
from guttstar.sym import SymElement
from guttstar.zpoly import PolyZ

from workloads import PBW_SIZES, digest, monomial_pairs

BENCH = Path(__file__).resolve().parent.parent

SCRIPT = """
import json
from guttstar.liealg import sl2
from guttstar.pbw import star_pbw
from guttstar.sym import SymElement
from workloads import digest
L = sl2()
x = SymElement(L, {(2, 0, 1): 3, (0, 1, 1): -1})
y = SymElement(L, {(1, 1, 0): 1, (0, 0, 2): 5})
print(json.dumps([digest(star_pbw(x, y)), digest(star_pbw(y, x))]))
"""


def _in_process():
    L = sl2()
    x = SymElement(L, {(2, 0, 1): 3, (0, 1, 1): -1})
    y = SymElement(L, {(1, 1, 0): 1, (0, 0, 2): 5})
    return [digest(star_pbw(x, y)), digest(star_pbw(y, x))]


def test_digest_is_the_same_across_processes_and_hash_seeds():
    expected = _in_process()
    for hash_seed in ("0", "1", "4242", "random"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        env["PYTHONPATH"] = os.pathsep.join([str(BENCH), str(BENCH.parent / "src")])
        out = subprocess.run(
            [sys.executable, "-c", SCRIPT], env=env, capture_output=True, text=True, check=True, timeout=120
        )
        assert json.loads(out.stdout) == expected, hash_seed


def test_digest_ignores_term_order_but_not_values():
    L = sl2()
    a = SymElement(L, {(1, 0, 0): PolyZ({0: 1, 2: 3}), (0, 1, 0): 2})
    b = SymElement(L, {(0, 1, 0): 2, (1, 0, 0): PolyZ({2: 3, 0: 1})})
    assert digest(a) == digest(b)
    assert digest(a) != digest(a.scale(2))
    assert len(digest(a)) == 8


def test_committed_reference_matches_the_oracle_on_a_sample():
    reference = json.loads((BENCH / "reference.json").read_text())["pbw-cold"]
    name, max_total = PBW_SIZES[1]
    assert name == "sl2"
    digests = reference[name]["digests"]
    L = sl2()
    pairs = list(monomial_pairs(L.dim, max_total))
    assert len(digests) == 8 * len(pairs)
    for i in range(0, len(pairs), 397):
        alpha, beta = pairs[i]
        product = star_pbw(SymElement.monomial(L, alpha), SymElement.monomial(L, beta))
        assert digests[8 * i : 8 * i + 8] == digest(product)
