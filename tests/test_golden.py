"""Golden SHA-256 digests of conedec's outputs.

Three corpora, each pinned by one digest per case:

* the command line: the exit code and stdout of a fixed set of commands
  on the cyclic Hamming 3x7, its 7x7 closure, Steane 6x14 and Hamming
  [15,11], and of `build` on the four recipes the README quotes;
* lp_decode: (optimum, objective, integral, status) over seeded LLRs on
  3x7, 7x7, Steane, [15,11] and Hagiwara 42x84, BSC at two crossover
  probabilities and Gaussian (BPSK over AWGN) LLRs;
* double description: the ray and vertex sets of the census instances.

A refactor that keeps every output bit-identical leaves every digest as
it is.  A change that means to change an output updates the digest in
the same commit and says why.  To print the digests of the tree as it
stands: PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import hashlib
import io
import random

import pytest

from conedec.cli import main
from conedec.cone import build_fundamental_cone, extreme_rays
from conedec.constructions import (
    hagiwara_css_label_matrix,
    hamming_matrix,
    sc_ldpc,
    steane_matrix,
)
from conedec.gf2 import BinaryMatrix, format_dense
from conedec.lpdecode import bsc_errors, llr_bsc, lp_decode
from conedec.polytope import build_relaxed_polytope, enumerate_vertices
from conedec.qcimprove import add_qc_shifts


def _hamming7_closure() -> BinaryMatrix:
    H = hamming_matrix(3, cyclic=True)
    return add_qc_shifts(H, H.row(0), 1)


MATRICES = {
    "3x7": lambda: hamming_matrix(3, cyclic=True),
    "7x7": _hamming7_closure,
    "steane": lambda: steane_matrix(3),
    "15_11": lambda: hamming_matrix(4),
    "hagiwara": hagiwara_css_label_matrix,
    "sc": lambda: sc_ldpc(
        [BinaryMatrix.from_rows(b) for b in ([[1, 1, 0], [0, 1, 1]], [[1, 0, 1], [1, 1, 0]])],
        L=4, mode="terminated",
    ),
}

# The recipes the README's command-line section quotes.
RECIPES = {
    "steane": '{"kind": "steane", "r": 3}',
    "qc-exponent": '{"kind": "qc-exponent", "exponents": [[1,2,4],[4,1,2]], "block_size": 7}',
    "sc": '{"kind": "sc", "blocks": [[[1,1,0]],[[1,0,1]]], "L": 3, "mode": "tailbiting"}',
    "hagiwara": '{"kind": "hagiwara"}',
}

# name -> (command, matrix, options...); the matrix is a MATRICES key.
CLI = {
    "cone 3x7": ("cone", "3x7"),
    "cone 7x7": ("cone", "7x7"),
    "cone steane": ("cone", "steane"),
    "cone 15_11": ("cone", "15_11"),
    "vertices 3x7": ("vertices", "3x7"),
    "vertices 3x7 csv": ("vertices", "3x7", "--format", "csv"),
    "vertices 7x7": ("vertices", "7x7"),
    "vertices 7x7 csv": ("vertices", "7x7", "--format", "csv"),
    "genfun 3x7 B=2": ("genfun", "3x7", "--box-B", "2"),
    "genfun steane B=1": ("genfun", "steane", "--box-B", "1"),
    "decode word 3x7": ("decode", "3x7", "--word", "1100000"),
    "decode word 3x7 ml": ("decode", "3x7", "--word", "1100000", "--ml"),
    "decode word 15_11": ("decode", "15_11", "--word", "110000000000100",
                          "--crossover", "0.05"),
    "decode word 15_11 ml": ("decode", "15_11", "--word", "110000000000100",
                             "--crossover", "0.05", "--ml"),
    "decode random steane": ("decode", "steane", "--random", "--crossover", "0.08",
                             "--trials", "150", "--seed", "7"),
    "decode random steane csv": ("decode", "steane", "--random", "--crossover", "0.08",
                                 "--trials", "150", "--seed", "7", "--format", "csv"),
    "decode random steane ml": ("decode", "steane", "--random", "--crossover", "0.08",
                                "--trials", "150", "--seed", "7", "--ml"),
    "decode random 15_11 ml": ("decode", "15_11", "--random", "--crossover", "0.08",
                               "--trials", "300", "--seed", "11", "--ml"),
    "decode orbits 7x7": ("decode", "7x7", "--random", "--orbit-n0", "1",
                          "--crossover", "0.15", "--trials", "40", "--seed", "5"),
    "improve noncw 3x7": ("improve", "3x7", "--n0", "1", "--target-noncw", "0",
                          "--budget", "5"),
    "improve fer 3x7": ("improve", "3x7", "--n0", "1", "--target-fer", "0.01",
                        "--crossover", "0.1", "--trials", "100", "--budget", "2",
                        "--seed", "3"),
}

# name -> (matrix, channel, parameter, trials, seed).  A "bsc" parameter is
# the crossover probability, a "gauss" one the noise deviation sigma.
DECODES = {
    "3x7 bsc 0.05": ("3x7", "bsc", 0.05, 200, 1),
    "3x7 bsc 0.15": ("3x7", "bsc", 0.15, 200, 2),
    "3x7 gauss": ("3x7", "gauss", 1.0, 200, 3),
    "7x7 bsc 0.05": ("7x7", "bsc", 0.05, 200, 4),
    "7x7 bsc 0.15": ("7x7", "bsc", 0.15, 200, 5),
    "7x7 gauss": ("7x7", "gauss", 1.0, 200, 6),
    "steane bsc 0.03": ("steane", "bsc", 0.03, 200, 7),
    "steane bsc 0.1": ("steane", "bsc", 0.1, 200, 8),
    "steane gauss": ("steane", "gauss", 1.0, 200, 9),
    "15_11 bsc 0.03": ("15_11", "bsc", 0.03, 200, 10),
    "15_11 bsc 0.08": ("15_11", "bsc", 0.08, 200, 11),
    "15_11 gauss": ("15_11", "gauss", 0.8, 100, 12),
    "hagiwara bsc 0.01": ("hagiwara", "bsc", 0.01, 100, 13),
    "hagiwara bsc 0.03": ("hagiwara", "bsc", 0.03, 100, 14),
    "hagiwara gauss": ("hagiwara", "gauss", 0.7, 60, 15),
}

# name -> (matrix, "rays" or "vertices"): the census workload's instances.
CENSUS = {
    "rays 3x7": ("3x7", "rays"),
    "rays 15_11": ("15_11", "rays"),
    "vertices 3x7": ("3x7", "vertices"),
    "vertices 7x7": ("7x7", "vertices"),
    "vertices sc terminated L=4": ("sc", "vertices"),
}

GOLDEN = {
    "cli cone 3x7": "96cb9fac0a2ddfc49d6dc6b247d02e5a8749d0decf8498645ec37d244d3287a0",
    "cli cone 7x7": "2825d3858e01943213cc39f2f8997aaa3e043a506da0d1a5b0a2fa8830aa7dbc",
    "cli cone steane": "64ca9db750af98255893003c0782a01999424062f9adbe85cd33d0c6e41bb5f8",
    "cli cone 15_11": "262b89fa43723cadd989f0432ae109e98af2c9221062790bc64d73b9be50bdb1",
    "cli vertices 3x7": "e2d354cfffcc8435a8f0667638d804da668772acc807f50148f060f2575e4986",
    "cli vertices 3x7 csv": "2609daa5386702020fe53c1eb48de1127cdcef8fdb9cc5e92d2c3aee224908d0",
    "cli vertices 7x7": "59203cc46da36f8100b8586506a3642110c1be1836aba665396c511069153dd6",
    "cli vertices 7x7 csv": "207b47e0176d938fdbbfea6bc63cd9ca88945b5b4d3785c36886fecc9fd3e1be",
    "cli genfun 3x7 B=2": "3d30848e6ea596cd918b74f5f31ee41c28924248537d4959519db2f0298fd267",
    "cli genfun steane B=1": "6e6fdefa1b975092fcc48e8feb3efcebed22d380c341b28011ae4e822c3b3ac6",
    "cli decode word 3x7": "aa00c131d9d8dc4e9c835b7fd9b384e21565772c56749c678928d2ad7b3ecfad",
    "cli decode word 3x7 ml": "e2e317a6a98b906bc17a547afe9033df127d7e64a31ea3ab6757aebd1caff472",
    "cli decode word 15_11": "f012630cd5ed99f09c701f202c5e5c3ccc54c0604f1af8656f2f4fdacfc651df",
    "cli decode word 15_11 ml": "4035211f4b951b7deaff4527096a6bf140d1ee6787731c2a31705207d2e84ab5",
    "cli decode random steane": "378a397463556a4bcac4cd065071f385b647541e44e01f2037cf9c752a280ece",
    "cli decode random steane csv": "eb3a765eb712849e7f74cae1381ccc52aef42f3639a478bf16560887570bc672",
    "cli decode random steane ml": "8ff992f1a63d00c09066c2e6987d8bdc1155e77f9faa18a361e9c7091d3c4dd2",
    "cli decode random 15_11 ml": "7488a24a4657a3d27a1be75980c0f821752adb9e2c3053a54dd99ab7f07e3d96",
    "cli decode orbits 7x7": "5b3268b0a5b137b4fb6959aeb64e913ce7a98078fe0657b0ba5b05ee6127cf9f",
    "cli improve noncw 3x7": "4ebe3360282cac32b96939f0eaa567fab56ffca3f53f9f25212986aec8a78008",
    "cli improve fer 3x7": "e23fecc3d105fc7e4d25f7e326e513fa92aab3f5d185842794de611f14fe00c5",
    "cli build steane": "371f68399789c57d5775d4ebbf4afd63e6c04bc87a67b051e71b03314ca351f4",
    "cli build qc-exponent": "9e721ffbea5b5c7a46868f65585f6ebbcd32b998eaf17fe1fad5d245d70da454",
    "cli build sc": "6f68cef16cab6c0d512bdbc58386ae4059bb221583be885ac397080860c2b842",
    "cli build hagiwara": "dbc266ed9654538cc6b8ac839e07dc7397dc19b6426df4f5e5f1124f2924297d",
    "decode 3x7 bsc 0.05": "61af067833d55ef58d580325e59a380f49414b81714b456db32fa813bf181daf",
    "decode 3x7 bsc 0.15": "f314c794b97e2a58dd1d3ead27a15b3329d3ea3d7de4c8aa60752a66e7c4adce",
    "decode 3x7 gauss": "eddfd930196b8e0e84c5ba8388e8793f05909d059d3c65dadd9bbaca2e4d25f1",
    "decode 7x7 bsc 0.05": "7a5651c99dbe6b734cf44fd2519b16c5f9fdb9caf2dac695e1cbb9f82b9cf675",
    "decode 7x7 bsc 0.15": "2df07c95cd7a4c5be3fb18ed26ec2fbc50ea8bc7cdb4ad1dcc15dc7ef918a3bf",
    "decode 7x7 gauss": "b2ce01e65b83a225beb221ae78bc21bcabe91dca0c65e4f46c2119f695bdefe1",
    "decode steane bsc 0.03": "c95b4fdf0b6f0b31a1bc4666b098ecee2c2869ec5b398021150ec90da7141647",
    "decode steane bsc 0.1": "12e9cea49e233ed37abdd2aa685d88135279524cfe79a52adb7a75a3c071d2fe",
    "decode steane gauss": "77253e379c12f0b0f538abef6d3b04a855d05daa3903bfd302873aecc4c82c37",
    "decode 15_11 bsc 0.03": "73f1fe201eaa577480467aeae28b8c0d3a07ee3211bf6b3cac26a0f72cd7dac8",
    "decode 15_11 bsc 0.08": "4f2373853dd8b0bcd2a15be68342ef0154c40a1589eab5448f8653ed48941437",
    "decode 15_11 gauss": "be00799f5ea6c4b285748d95a607a29a73fafa28a69da2aac087a7c4ba9aaf3d",
    "decode hagiwara bsc 0.01": "538fab816f39907c345179eb52786a61fb6f3fa718c0d96344bfcd9024be275d",
    "decode hagiwara bsc 0.03": "057cf06134c86512233801288496b700c18242401f0e5766d8fc68717b4afd58",
    "decode hagiwara gauss": "fb3ace064c5d9554ee5a95a3c17239e08081384c9e80ab144c31d428ebd4a348",
    "census rays 3x7": "f06a646056fa53f7d339bd5baa7732b6b3bd31bb6f05e4c7b24ce714304cf98c",
    "census rays 15_11": "38845fbffc01879af99d8aea103f38f29908f36c8cc5d45f5a303fdeae238d34",
    "census vertices 3x7": "e527e1b75984c7a6b87f1193ff43d22a5684bd5b4f7e11be619c145f1bc9c129",
    "census vertices 7x7": "523f5327ebff570646aec7e68e8b395b51e80f13df3c45b0de4ab70e8e0bf0db",
    "census vertices sc terminated L=4": "94be71ddccf631cbf4a466da105ecb7174cb3802a683d9336b5664e6fb184260",
}


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _run_cli(argv: list[str]) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return f"exit {code}\n{out.getvalue()}"


def cli_digest(case: str, tmp_dir) -> str:
    if case.startswith("build "):
        path = tmp_dir / "recipe.json"
        path.write_text(RECIPES[case.removeprefix("build ")])
        return _digest(_run_cli(["build", str(path)]))
    command, name, *options = CLI[case]
    path = tmp_dir / f"{name}.txt"
    path.write_text(format_dense(MATRICES[name]()))
    return _digest(_run_cli([command, str(path), *options]))


def _llrs(n: int, channel: str, param: float, trials: int, seed: int):
    if channel == "bsc":
        for e in bsc_errors(n, param, trials, seed):
            yield llr_bsc(e, param)
        return
    # All-zero BPSK word (+1 each) over AWGN: gamma_i = 2 y_i / sigma^2.
    rng = random.Random(seed)
    for _ in range(trials):
        yield [2 * rng.gauss(1.0, param) / param**2 for _ in range(n)]


def decode_digest(case: str) -> str:
    name, channel, param, trials, seed = DECODES[case]
    H = MATRICES[name]()
    lines = []
    for gamma in _llrs(H.cols, channel, param, trials, seed):
        res = lp_decode(H, gamma)
        opt = " ".join(map(str, res.optimum))
        lines.append(f"{opt} | {res.objective} | {res.integral} | {res.status}")
    return _digest("\n".join(lines) + "\n")


def census_digest(case: str) -> str:
    name, kind = CENSUS[case]
    H = MATRICES[name]()
    if kind == "rays":
        out = extreme_rays(build_fundamental_cone(H)).rays
    else:
        out = enumerate_vertices(build_relaxed_polytope(H)).vertices
    return _digest("".join(" ".join(map(str, v)) + "\n" for v in sorted(set(out))))


CLI_CASES = list(CLI) + [f"build {k}" for k in RECIPES]


@pytest.mark.parametrize("case", CLI_CASES)
def test_cli_output_is_golden(tmp_path, case):
    assert cli_digest(case, tmp_path) == GOLDEN[f"cli {case}"]


@pytest.mark.parametrize("case", list(DECODES))
def test_lp_decode_is_golden(case):
    assert decode_digest(case) == GOLDEN[f"decode {case}"]


@pytest.mark.parametrize("case", list(CENSUS))
def test_census_is_golden(case):
    assert census_digest(case) == GOLDEN[f"census {case}"]


if __name__ == "__main__":
    import tempfile
    from pathlib import Path

    with tempfile.TemporaryDirectory() as tmp:
        for case in CLI_CASES:
            print(f'    "cli {case}": "{cli_digest(case, Path(tmp))}",')
    for case in DECODES:
        print(f'    "decode {case}": "{decode_digest(case)}",')
    for case in CENSUS:
        print(f'    "census {case}": "{census_digest(case)}",')
