"""The four benchmark workloads.

A workload is built in three steps:

* ``__init__`` is the set-up a user pays once: it builds the code
  instances through conedec and loads the benchmark's input data;
* ``prepare`` computes the reference answers with code that shares
  nothing with conedec (see reference.py); it is not part of set-up time;
* ``ops(rng)`` generates one round of operations from the round's own
  random stream.  Each op is a call into conedec's public functions plus a
  check of its answer against the reference.

Every round of a workload has the same composition (the same number of
ops of each kind, and for decoding the same error weights), so medians
and tail percentiles taken over whole rounds stay comparable between
runs and seeds.  Error weights follow the quantiles (i + 1/2)/k of the
Binomial(n, p) weight distribution of a BSC; the error positions, the
membership vectors and the row orders come from the seed.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import reference as ref

DATA = Path(__file__).resolve().parent / "data"

# Counts pinned by the paper's examples and the acceptance suite; the
# census checks every run against them.
PINNED = {
    "rays 3x7": 42,
    "rays 15_11": 3440,
    "cone rows 3x7": 19,
    "cone rows 15_11": 47,
    "vertices 3x7": 96,
    "integral vertices 3x7": 16,
    "vertices 7x7": 16,
    "vertices sc terminated L=4": 548,
    "integral vertices sc terminated L=4": 16,
    "improve 3x7 rows": 7,
    "improve 3x7 iterations": 1,
    "pseudocodewords steane B=1": 256,
    "pseudocodewords 7x7 B=3": 1180,
}

# Toy spatial-coupling component blocks of the acceptance suite.
SC_BLOCKS = ([[1, 1, 0], [0, 1, 1]], [[1, 0, 1], [1, 1, 0]])


@dataclass
class Op:
    kind: str
    run: Callable[[], object]
    check: Callable[[object], str | None]  # None when the answer is right


def error_weights(n: int, p: float, k: int, min_weight: int = 0) -> list[int]:
    """k error weights at the (i + 1/2)/k quantiles of Binomial(n, p),
    conditioned on weight >= min_weight."""
    pmf = [math.comb(n, w) * p**w * (1 - p) ** (n - w) if w >= min_weight else 0.0 for w in range(n + 1)]
    cdf, acc = [], 0.0
    for x in pmf:
        acc += x / sum(pmf)
        cdf.append(acc)
    return [next((w for w, c in enumerate(cdf) if c >= (i + 0.5) / k), n) for i in range(k)]


def load_hamming7_vertices():
    """The 96 vertices of the cyclic 3x7 relaxed polytope, as stored."""
    obj = json.loads((DATA / "hamming7_vertices.json").read_text())
    rows = [ref.word_of(int(c) for c in r) for r in obj["matrix"]]
    verts = [tuple(Fraction(s) for s in v.split()) for v in obj["vertices"]]
    return rows, verts


def expect_bool(want: bool) -> Callable[[object], str | None]:
    def check(got):
        return None if got is want else f"returned {got!r}, expected {want}"

    return check


class Workload:
    name = ""
    tail_pct = 50.0
    trace_rounds = 1
    # (ROADMAP baseline row, op kind whose median op time reproduces it)
    baseline: tuple[tuple[str, str], ...] = ()

    def __init__(self, M, tiny: bool, workdir: Path):
        self.M = M
        self.tiny = tiny
        self.workdir = workdir

    def prepare(self) -> None:
        """Compute reference answers; shares no code with conedec."""

    def ops(self, rng) -> list[Op]:
        raise NotImplementedError


# --- decoding ----------------------------------------------------------------


class DecodeCode:
    """One code under LP decoding, with its brute-force ML reference when
    the code is small enough to list."""

    def __init__(self, label: str, H, p: float, k: int, ml: bool, min_weight: int = 0):
        self.label, self.H, self.p, self.ml = label, H, p, ml
        self.rows = list(H.row_bits)
        self.n = H.cols
        self.sups = ref.supports(self.rows, self.n)
        self.weights = error_weights(self.n, p, k, min_weight)
        self.decoder = None

    def prepare(self) -> None:
        if self.ml:
            self.decoder = ref.MLDecoder(ref.codewords(self.rows, self.n), self.n)

    def op(self, M, rng, weight: int) -> Op:
        error = [0] * self.n
        for i in rng.sample(range(self.n), weight):
            error[i] = 1
        gamma = ref.bsc_llrs(error, self.p)
        H = self.H
        return Op(
            f"decode {self.label}",
            lambda: M.lpdecode.lp_decode(H, gamma),
            lambda res: self.check(M, gamma, res),
        )

    def check(self, M, gamma, res) -> str | None:
        g = ref.rationalize(gamma)
        x = res.optimum
        if len(x) != self.n:
            return "optimum has the wrong length"
        bad = ref.polytope_violation(self.sups, x)
        if bad is not None:
            return f"optimum violates {bad}"
        if res.objective != sum(a * b for a, b in zip(g, x)):
            return "objective differs from gamma . optimum"
        integral = all(v.denominator == 1 for v in x)
        if res.integral != integral:
            return "integral flag is wrong"
        if res.status not in ("codeword", "fractional", "tie"):
            return f"unknown status {res.status!r}"
        if (res.status == "codeword" and not integral) or (res.status == "fractional" and integral):
            return f"status {res.status} contradicts integral={integral}"
        if integral and not ref.syndrome_is_zero(self.rows, ref.word_of(int(v) for v in x)):
            return "integral optimum is not a codeword"
        if self.decoder is None:
            # The zero codeword is feasible with cost 0.
            return "objective above 0" if res.objective > 0 else None
        ml_cost, ml_word = self.decoder.decode(g)
        if res.objective > ml_cost:
            return "LP objective above the ML cost"
        if res.status == "codeword" and tuple(int(v) for v in x) != ml_word:
            return "unique integral optimum differs from the ML word"
        if res.status == "fractional" and not res.objective < ml_cost:
            return "unique fractional optimum is not below the ML cost"
        if integral and res.objective != ml_cost:
            return "integral optimum is not ML-optimal"
        if M.lpdecode.ml_decode(self.H, gamma).to_tuple() != ml_word:
            return "conedec ml_decode differs from the brute-force ML word"
        return None


class DecodeWorkload(Workload):
    def __init__(self, M, tiny, workdir):
        super().__init__(M, tiny, workdir)
        self.codes = self.build_codes()

    def build_codes(self) -> list[DecodeCode]:
        raise NotImplementedError

    def prepare(self) -> None:
        for c in self.codes:
            c.prepare()

    def ops(self, rng) -> list[Op]:
        ops = [c.op(self.M, rng, w) for c in self.codes for w in c.weights]
        rng.shuffle(ops)
        return ops


class DecodeSmall(DecodeWorkload):
    """Monte Carlo FER-style decoding of the three small codes at p = 0.05,
    where most of a decode is building and scaling the LP."""

    name = "decode-small"
    tail_pct = 99.0
    trace_rounds = 8
    baseline = (
        ("LP decode, Hamming 3x7 (38 rows)", "decode 3x7"),
        ("LP decode, Hamming 7x7 (70 rows)", "decode 7x7"),
        ("LP decode, Steane 6x14", "decode steane"),
    )

    def build_codes(self):
        C = self.M.constructions
        H3 = C.hamming_matrix(3, cyclic=True)
        H7 = self.M.qcimprove.add_qc_shifts(H3, H3.row(0), 1)
        S = C.steane_matrix(3)
        k = 2 if self.tiny else 12
        return [
            DecodeCode("3x7", H3, 0.05, k, ml=True),
            DecodeCode("7x7", H7, 0.05, k, ml=True),
            DecodeCode("steane", S, 0.05, k, ml=True),
        ]


class DecodeLarge(DecodeWorkload):
    """Hamming [15,11] at p = 0.05 plus Hagiwara 42x84 at p = 0.01, where
    pivots and the tie check dominate a decode.  Only error patterns with
    at least one flip are drawn: an error-free word needs no pivots, and
    set-up cost is decode-small's subject."""

    name = "decode-large"
    tail_pct = 75.0
    trace_rounds = 1
    baseline = (
        ("LP decode, Hamming [15,11] (542 rows)", "decode 15_11"),
        ("LP decode, Hagiwara (1512 rows)", "decode hagiwara"),
    )

    def build_codes(self):
        C = self.M.constructions
        return [
            DecodeCode("15_11", C.hamming_matrix(4), 0.05, 2 if self.tiny else 12, ml=True, min_weight=1),
            DecodeCode("hagiwara", C.hagiwara_css_label_matrix(), 0.01, 1, ml=False, min_weight=1),
        ]


# --- census ------------------------------------------------------------------


def check_rays(rays, sups, want: int) -> str | None:
    rays = list(rays)
    if len(rays) != want:
        return f"{len(rays)} rays, pinned {want}"
    if len(set(rays)) != len(rays):
        return "duplicate rays"
    for r in rays:
        if any(x != int(x) for x in r) or math.gcd(*r) != 1:
            return f"ray {r} is not a primitive integer vector"
        if ref.cone_violation(sups, r) is not None:
            return f"ray {r} is outside the cone"
    return None


def check_pcw(coords, want: set) -> str | None:
    got = set(coords)
    if len(got) != len(coords):
        return "duplicate pseudocodewords"
    if got != want:
        return f"{len(got)} pseudocodewords, brute force finds {len(want)}"
    return None


class Census(Workload):
    """Exact enumeration with pinned counts: double description, the
    improve loop, box pseudocodeword sweeps, and the CLI's JSON output."""

    name = "census"
    tail_pct = 75.0
    trace_rounds = 1
    baseline = (("Extreme rays, Hamming [15,11] cone", "rays 15_11"),)

    def __init__(self, M, tiny, workdir):
        super().__init__(M, tiny, workdir)
        C, G = M.constructions, M.gf2
        self.H3 = C.hamming_matrix(3, cyclic=True)
        self.H7 = M.qcimprove.add_qc_shifts(self.H3, self.H3.row(0), 1)
        self.H15 = C.hamming_matrix(4)
        self.S = C.steane_matrix(3)
        self.SC = C.sc_ldpc([G.BinaryMatrix.from_rows(b) for b in SC_BLOCKS], L=4, mode="terminated")
        self.h7_rows, self.h7_vertices = load_hamming7_vertices()

    def prepare(self):
        self.sups = {
            k: ref.supports(list(H.row_bits), H.cols)
            for k, H in (("3x7", self.H3), ("15_11", self.H15), ("sc", self.SC))
        }
        self.h3_words = {
            tuple(Fraction(b) for b in ref.bits_of(w, 7))
            for w in ref.codewords(self.h7_rows, 7)
        }
        self.sc_words = {
            tuple(Fraction(b) for b in ref.bits_of(w, self.SC.cols))
            for w in ref.codewords(list(self.SC.row_bits), self.SC.cols)
        }
        self.box = {
            "steane": ref.box_pseudocodewords(list(self.S.row_bits), 14, 1),
            "7x7": ref.box_pseudocodewords(list(self.H7.row_bits), 7, 3),
        }
        for key, pin in (("steane", "pseudocodewords steane B=1"), ("7x7", "pseudocodewords 7x7 B=3")):
            if len(self.box[key]) != PINNED[pin]:
                raise RuntimeError(f"brute force finds {len(self.box[key])} for {pin}")
        self.h7_orbit = {ref.rotate(self.h7_rows[0], 7, s) for s in range(7)}
        if set(self.H7.row_bits) != self.h7_orbit:
            raise RuntimeError("the 7x7 closure is not the shift orbit of the first row")

    def permuted(self, H, rng):
        rows = list(H.row_bits)
        rng.shuffle(rows)
        return self.M.gf2.BinaryMatrix(H.rows, H.cols, rows)

    def matrix_file(self, H, name: str) -> str:
        path = self.workdir / f"{name}.txt"
        lines = [f"{H.rows} {H.cols}"]
        lines += [" ".join(str((r >> i) & 1) for i in range(H.cols)) for r in H.row_bits]
        path.write_text("\n".join(lines) + "\n")
        return str(path)

    def cli(self, argv: list[str]):
        with contextlib.redirect_stdout(io.StringIO()):
            return self.M.cli.main(argv)

    def cli_json(self, code: int, path: Path):
        if code != 0:
            raise RuntimeError(f"cli exit code {code}")
        return json.loads(path.read_text())

    def ops(self, rng) -> list[Op]:
        M = self.M
        H3, H7, H15 = (self.permuted(H, rng) for H in (self.H3, self.H7, self.H15))
        S, SC = self.permuted(self.S, rng), self.permuted(self.SC, rng)
        f3, f15, fS = (self.matrix_file(H, k) for H, k in ((H3, "h3"), (H15, "h15"), (S, "steane")))
        out = {k: self.workdir / f"{k}.json" for k in ("cone3", "cone15", "vert3", "genS")}
        target = M.qcimprove.ImproveTarget(max_noncw_vertices=0)

        def rays(H):
            return lambda: M.cone.extreme_rays(M.cone.build_fundamental_cone(H))

        def vertices(H):
            return lambda: M.polytope.enumerate_vertices(M.polytope.build_relaxed_polytope(H))

        def cli(argv):
            return lambda: self.cli(argv)

        ops = [
            Op("rays 3x7", rays(H3), lambda R: check_rays(R.rays, self.sups["3x7"], PINNED["rays 3x7"])),
            Op("vertices 3x7", vertices(H3), self.check_vertices_3x7),
            Op("vertices 7x7", vertices(H7), self.check_vertices_7x7),
            Op("lp_pseudocodewords 3x7", lambda: M.polytope.lp_pseudocodewords(H3), self.check_census_3x7),
            Op("improve 3x7", lambda: M.qcimprove.improve_representation(H3, 1, target, budget=3),
               self.check_improve),
            Op("pcw steane B=1", lambda: M.pcw.enumerate_pseudocodewords(S, 1),
               lambda ps: check_pcw([p.coords for p in ps], self.box["steane"])),
            Op("genfun steane B=1", lambda: M.pcw.generating_function(S, 1),
               lambda f: self.check_genfun(f.terms, self.box["steane"])),
            Op("cli cone 3x7", cli(["cone", f3, "--out", str(out["cone3"])]),
               lambda code: self.check_cli_cone(code, out["cone3"], "3x7")),
            Op("cli vertices 3x7", cli(["vertices", f3, "--out", str(out["vert3"])]),
               lambda code: self.check_cli_vertices(code, out["vert3"])),
        ]
        if not self.tiny:
            ops += [
                Op("rays 15_11", rays(H15),
                   lambda R: check_rays(R.rays, self.sups["15_11"], PINNED["rays 15_11"])),
                Op("vertices sc", vertices(SC), self.check_vertices_sc),
                Op("pcw 7x7 B=3", lambda: M.pcw.enumerate_pseudocodewords(H7, 3),
                   lambda ps: check_pcw([p.coords for p in ps], self.box["7x7"])),
                Op("genfun 7x7 B=3", lambda: M.pcw.generating_function(H7, 3),
                   lambda f: self.check_genfun(f.terms, self.box["7x7"])),
                Op("cli cone 15_11", cli(["cone", f15, "--out", str(out["cone15"])]),
                   lambda code: self.check_cli_cone(code, out["cone15"], "15_11")),
                Op("cli genfun steane B=1", cli(["genfun", fS, "--box-B", "1", "--out", str(out["genS"])]),
                   lambda code: self.check_cli_genfun(code, out["genS"])),
            ]
        rng.shuffle(ops)
        return ops

    def check_vertices_3x7(self, V) -> str | None:
        if set(V.vertices) != set(self.h7_vertices) or len(V) != PINNED["vertices 3x7"]:
            return f"{len(V)} vertices, differing from the stored 96"
        if sum(V.integral) != PINNED["integral vertices 3x7"]:
            return f"{sum(V.integral)} integral vertices, pinned 16"
        return None

    def check_census_3x7(self, c) -> str | None:
        bad = self.check_vertices_3x7(c.vertex_set)
        if bad is not None:
            return bad
        if set(c.codeword) != self.h3_words or len(c.non_codeword) != PINNED["vertices 3x7"] - 16:
            return f"{len(c.codeword)} codeword and {len(c.non_codeword)} other vertices"
        return None

    def check_vertices_7x7(self, V) -> str | None:
        if len(V) != PINNED["vertices 7x7"] or set(V.vertices) != self.h3_words:
            return f"{len(V)} vertices, expected exactly the 16 codewords"
        return None

    def check_vertices_sc(self, V) -> str | None:
        if len(V) != PINNED["vertices sc terminated L=4"] or len(set(V.vertices)) != len(V):
            return f"{len(V)} distinct vertices, pinned 548"
        for v in V.vertices:
            bad = ref.polytope_violation(self.sups["sc"], v)
            if bad is not None:
                return f"vertex {v} violates {bad}"
        integral = {v for v, flag in zip(V.vertices, V.integral) if flag}
        if integral != self.sc_words or len(integral) != PINNED["integral vertices sc terminated L=4"]:
            return "integral vertices differ from the codewords"
        return None

    def check_improve(self, rep) -> str | None:
        if not rep.met_target or len(rep.iterations) != PINNED["improve 3x7 iterations"]:
            return f"met_target={rep.met_target} after {len(rep.iterations)} iterations"
        if rep.final_matrix.rows != PINNED["improve 3x7 rows"] or set(rep.final_matrix.row_bits) != self.h7_orbit:
            return "final matrix is not the 7-row shift orbit"
        it = rep.iterations[0]
        if (it.vertex_count, it.non_codeword_vertex_count) != (16, 0):
            return f"census after the step reads {it.vertex_count}/{it.non_codeword_vertex_count}"
        return None

    def check_genfun(self, terms: dict, want: set) -> str | None:
        if any(c != 1 for c in terms.values()):
            return "coefficient other than 1"
        return check_pcw(list(terms), want)

    def check_cli_cone(self, code, path: Path, key: str) -> str | None:
        obj = self.cli_json(code, path)
        want_rows = PINNED[f"cone rows {key}"]
        if obj["type"] != "cone-census" or obj["inequality_count"] != want_rows:
            return f"cone census header reads {obj['type']}/{obj['inequality_count']}"
        if obj["ray_count"] != len(obj["rays"]):
            return "ray_count differs from the ray list"
        rays = [tuple(int(s) for s in r) for r in obj["rays"]]
        return check_rays(rays, self.sups[key], PINNED[f"rays {key}"])

    def check_cli_vertices(self, code, path: Path) -> str | None:
        obj = self.cli_json(code, path)
        verts = {tuple(Fraction(s) for s in v) for v in obj["vertices"]}
        if verts != set(self.h7_vertices) or obj["total"] != PINNED["vertices 3x7"]:
            return "vertex JSON differs from the stored 96 vertices"
        if obj["integral_count"] != PINNED["integral vertices 3x7"]:
            return f"integral_count {obj['integral_count']}"
        return None

    def check_cli_genfun(self, code, path: Path) -> str | None:
        obj = self.cli_json(code, path)
        return self.check_genfun({tuple(t["exp"]): t["coef"] for t in obj["terms"]}, self.box["steane"])


# --- certification -----------------------------------------------------------


class Certify(Workload):
    """Membership answers known by construction: Hagiwara pseudocodewords,
    Steane polytope products, and the 3x7 block composition rules."""

    name = "certify"
    tail_pct = 99.0
    trace_rounds = 2
    baseline = (
        ("Cone membership, Hagiwara 42x84 (336 rows), member", "cone.contains hagiwara member"),
        ("Pseudocodeword certification, Hagiwara 42x84, member", "is_gc hagiwara member"),
    )

    def __init__(self, M, tiny, workdir):
        super().__init__(M, tiny, workdir)
        C = M.constructions
        self.G = C.hagiwara_css_label_matrix()
        self.KG = M.cone.build_fundamental_cone(self.G)
        self.basis = [v.bits for v in M.gf2.gf2_nullspace_basis(self.G)]
        self.S = C.steane_matrix(3)
        self.PS = M.polytope.build_relaxed_polytope(self.S)
        self.s_sups = ref.supports(list(self.S.row_bits), self.S.cols)
        self.H3 = C.hamming_matrix(3, cyclic=True)
        self.h7_rows, self.h7_vertices = load_hamming7_vertices()
        self.h3_words = ref.codewords(self.h7_rows, 7)
        self.h3_sups = ref.supports(self.h7_rows, 7)
        self.g_sups = ref.supports(list(self.G.row_bits), self.G.cols)

    def prepare(self):
        g_rows = list(self.G.row_bits)
        if any(not ref.syndrome_is_zero(g_rows, w) for w in self.basis):
            raise RuntimeError("a Hagiwara nullspace basis vector is not a codeword")
        if len(ref.row_reduce(self.basis)) != len(self.basis) or (
            len(ref.row_reduce(g_rows)) + len(self.basis) != self.G.cols
        ):
            raise RuntimeError("the Hagiwara nullspace basis does not span the code")
        if list(self.H3.row_bits) != self.h7_rows:
            raise RuntimeError("stored vertices belong to another 3x7 matrix")
        if len(self.h7_vertices) != 96 or not all(ref.is_vertex(self.h3_sups, v) for v in self.h7_vertices):
            raise RuntimeError("stored 3x7 vertices are not the 96 vertices")

    # Inputs ------------------------------------------------------------------

    def hag_member(self, rng) -> list[int]:
        v = [0] * self.G.cols
        for _ in range(3):
            w = 0
            for b in self.basis:
                if rng.random() < 0.5:
                    w ^= b
            v = [x + ((w >> i) & 1) for i, x in enumerate(v)]
        return v

    def hag_nonmember(self, rng) -> list[int]:
        """A pseudocodeword with one coordinate raised past its row: for
        row j and i in its support, v_i > sum of the other support entries
        breaks Row_j(H) . v >= 2 v_i.  The raise is even, so every parity
        check still holds and only the cone inequality fails."""
        v = self.hag_member(rng)
        j = rng.randrange(self.G.rows)
        i = rng.choice(self.g_sups[j])
        new = sum(v[k] for k in self.g_sups[j] if k != i) + 1
        new += (new - v[i]) % 2
        v[i] = new
        return v

    def h3_cone_member(self, rng, integer: bool = False) -> tuple[Fraction, ...]:
        v = [Fraction(0)] * 7
        for w in rng.sample(self.h3_words[1:], rng.randint(2, 3)):
            c = Fraction(rng.randint(1, 3), 1 if integer else rng.randint(1, 2))
            v = [x + c * b for x, b in zip(v, ref.bits_of(w, 7))]
        return tuple(v)

    def steane_nonmember(self, rng) -> tuple[Fraction, ...]:
        """A 3x7 codeword with coordinate i moved by t in (0, 1] off its
        value breaks the odd-set inequality of any row j through i, with
        S = (supp(c) & N(j)) ^ {i}; paired with a vertex in the other
        block it lies outside the Steane polytope."""
        c = list(ref.bits_of(rng.choice(self.h3_words), 7))
        i = rng.randrange(7)
        t = Fraction(rng.randint(1, 4), 4)
        y = [Fraction(b) for b in c]
        y[i] = t if c[i] == 0 else 1 - t
        u = rng.choice(self.h7_vertices)
        return tuple(u) + tuple(y) if rng.random() < 0.5 else tuple(y) + tuple(u)

    def repeated_split(self, rng, v, t: int) -> tuple[Fraction, ...]:
        w = [[Fraction(0)] * 7 for _ in range(t)]
        for i in range(7):
            full = rng.randrange(t)
            for k in range(t):
                w[k][i] = v[i] if k == full else v[i] * Fraction(rng.randint(0, 2), 2)
        return tuple(w[k][i] for k in range(t) for i in range(7))

    # Ops ---------------------------------------------------------------------

    def ops(self, rng) -> list[Op]:
        M = self.M
        few, many = (1, 2) if self.tiny else (2, 40)
        ops = []
        for _ in range(few):
            for member in (True, False):
                tag = "member" if member else "nonmember"
                p = self.hag_member(rng) if member else self.hag_nonmember(rng)
                q = self.hag_member(rng) if member else self.hag_nonmember(rng)
                ops.append(Op(f"is_gc hagiwara {tag}",
                              (lambda p=p: M.pcw.is_gc_pseudocodeword(self.G, p)),
                              self.known(member, self.g_sups, p, parity=True)))
                ops.append(Op(f"cone.contains hagiwara {tag}", (lambda q=q: self.KG.contains(q)),
                              self.known(member, self.g_sups, q)))
        for _ in range(many):
            x = tuple(rng.choice(self.h7_vertices)) + tuple(rng.choice(self.h7_vertices))
            y = self.steane_nonmember(rng)
            ops.append(Op("polytope.contains steane member", (lambda x=x: self.PS.contains(x)),
                          self.known_polytope(True, x)))
            ops.append(Op("polytope.contains steane nonmember", (lambda y=y: self.PS.contains(y)),
                          self.known_polytope(False, y)))
        H3 = self.H3
        for k in range(few * 3):
            vs = [self.h3_cone_member(rng), self.h3_cone_member(rng)]
            ops.append(Op("blockrow_embed 3x7", (lambda vs=vs: M.cone.blockrow_embed(vs, [H3, H3])),
                          self.check_blockrow(vs[0] + vs[1])))
            member = k % 2 == 0
            v = self.h3_cone_member(rng, integer=True)
            t = rng.randint(1, 3)
            w = list(self.repeated_split(rng, v, t))
            if not member:
                w[rng.randrange(len(w))] += 1 + max(v)  # some w_ki > v_i
            ops.append(Op("repeated_block 3x7",
                          (lambda v=v, w=w, t=t: M.cone.repeated_block_membership(H3, v, w, t)),
                          expect_bool(member)))
            s_bits = rng.randint(1, 7)
            dots = [sum(v[i] for i in sup) for sup in self.h3_sups]
            wmax = min(dots[j] for j in range(3) if (s_bits >> j) & 1)
            lift = wmax * Fraction(rng.randint(0, 4), 4) if member else wmax + Fraction(1, rng.randint(1, 3))
            s = M.gf2.BinaryVector(3, s_bits)
            ops.append(Op("augment_column_lift 3x7",
                          (lambda s=s, v=v, lift=lift: M.cone.augment_column_lift(H3, s, v, lift)),
                          expect_bool(member)))
        rng.shuffle(ops)
        return ops

    def known(self, member: bool, sups, v, parity: bool = False):
        """Answer known by construction, confirmed by the reference."""

        def check(got):
            ours = ref.cone_violation(sups, v) is None
            if parity:
                ours = ours and all(sum(v[i] for i in sup) % 2 == 0 for sup in sups)
            if ours != member:
                return "reference disagrees with the construction"
            return expect_bool(member)(got)

        return check

    def known_polytope(self, member: bool, x):
        def check(got):
            if (ref.polytope_violation(self.s_sups, x) is None) != member:
                return "reference disagrees with the construction"
            return expect_bool(member)(got)

        return check

    def check_blockrow(self, want):
        def check(got):
            w, certified = got
            if certified is not True or tuple(w) != want:
                return f"blockrow_embed returned certified={certified}"
            return None

        return check


WORKLOADS = {w.name: w for w in (DecodeSmall, DecodeLarge, Census, Certify)}
