"""The three workloads: seeded inputs, one op per library call, and the
checks each op's output must pass.

Every workload hands out ops in fixed blocks.  A block holds every op
kind of the workload in its fixed share, so a run made of whole blocks
always has the same mix whatever the seed; the seed only changes the
generated games, documents and Monte Carlo seeds.  Inputs are built in
set-up and reused when a fast run wraps around the pool.
"""

from __future__ import annotations

import csv
import io
import json
import os
import random
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction as F

import gate


class Op:
    """One library call with its check.

    call() runs the call and returns its result; check(result) is the
    gate's verdict; digest(result) hashes the canonical exact output (None
    where the output is not exact); units names the MC trials or FP
    rounds the op performs, for throughput per trial or round.
    """

    __slots__ = ("kind", "index", "call", "check", "digest", "known_defect",
                 "units")

    def __init__(self, kind, call, check, digest=None, known_defect=False,
                 units=None):
        self.kind = kind
        self.index = -1
        self.call = call
        self.check = check
        self.digest = digest
        self.known_defect = known_defect
        self.units = units


class Workload:
    """A pool of ops laid out as blocks of BLOCK kinds."""

    name = ""
    BLOCK: tuple = ()
    POOL_BLOCKS = 1

    def __init__(self, lib, seed: int, workdir: str):
        self.lib = lib
        self.seed = seed
        self.workdir = workdir
        self.rng = random.Random(f"{self.name}:{seed}")
        self.pool = [self._make(kind, index) for index, kind in
                     enumerate(self.BLOCK * self.POOL_BLOCKS)]

    def _make(self, kind: str, index: int) -> Op:
        op = self.make(kind, index)
        op.index = index
        return op

    def make(self, kind: str, index: int) -> Op:
        raise NotImplementedError

    def block(self, b: int) -> list:
        k = len(self.BLOCK)
        start = (b % self.POOL_BLOCKS) * k
        return self.pool[start:start + k]

    WARMUP_KINDS: tuple = ()

    def warmup(self):
        """Run the first block's ops of the cheap WARMUP_KINDS once."""
        for op in self.block(0):
            if op.kind in self.WARMUP_KINDS:
                op.call()

    def finish(self, tally):
        """Run-level checks over pooled results; none by default."""


# ------------------------------------------------------------ generators

def _frac(rng) -> F:
    return F(rng.randint(-9, 9), rng.randint(1, 4))


def _matrix(rng, n1, n2, draw):
    return [[draw(rng) for _ in range(n2)] for _ in range(n1)]


def _small_int(rng) -> int:
    return rng.randint(-3, 3)


def _distribution(rng, atoms_from):
    """1 to 3 distinct atoms with exact positive masses summing to 1."""
    atoms = sorted(rng.sample(atoms_from, rng.randint(1, 3)))
    weights = [rng.randint(1, 4) for _ in atoms]
    total = sum(weights)
    return atoms, [F(w, total) for w in weights]


def _dist_matrix(rng, n, atoms_from):
    return [[_distribution(rng, atoms_from) for _ in range(n)]
            for _ in range(n)]


def _vector_matrix(rng, n, dim):
    return [[tuple(_frac(rng) for _ in range(dim)) for _ in range(n)]
            for _ in range(n)]


def _weights(rng, m):
    w = [rng.randint(0, 3) for _ in range(m)]
    if not any(w):
        w[rng.randrange(m)] = 1
    return w


TAIL_ATOMS = [1, 2, 3, 4, 5, 6]
SEGMENT_ATOMS = [F(k, 2) for k in range(9)]          # 0 .. 4 in halves
SEGMENT_PARTITIONS = ([0, 2, 4], [0, 1, 3, 4])


# ------------------------------------------------------------ solve-exact

class SolveExact(Workload):
    """Exact games handed straight to the solvers.

    Most ops are square Fraction bimatrix games of size 3..6; small-int
    games (often degenerate) and rectangular games take a share; the rest
    are RLEX decisions on vector games, tail decisions on distribution
    games and Pareto-Nash solves of segment games.
    """

    name = "solve-exact"
    # the cheap kinds make up most of a block, so the median op sits well
    # inside their cluster and the 90th percentile inside the n=5 solves
    BLOCK = ("frac3", "frac3", "frac3", "frac3", "int3", "int3", "vec3",
             "vec3", "tail", "tail", "pareto", "pareto", "rect", "rect",
             "frac4", "frac4", "int4", "vec4", "rect45", "frac5", "frac5",
             "frac6")
    POOL_BLOCKS = 24
    RECT_SHAPES = ((2, 4), (3, 4), (4, 3), (5, 2))
    WARMUP_KINDS = ("frac3", "vec3", "tail", "pareto")

    def make(self, kind, index):
        rng = self.rng
        if kind.startswith(("frac", "int", "rect")):
            if kind == "rect":
                n1, n2 = self.RECT_SHAPES[index % len(self.RECT_SHAPES)]
            elif kind == "rect45":
                n1, n2 = 4, 5
            else:
                n1 = n2 = int(kind[-1])
            draw = _small_int if kind.startswith("int") else _frac
            return self._bimatrix(kind, _matrix(rng, n1, n2, draw),
                                  _matrix(rng, n1, n2, draw))
        if kind.startswith("vec"):
            n = int(kind[-1])
            return self._vector(kind, _vector_matrix(rng, n, 3),
                                _vector_matrix(rng, n, 3))
        if kind == "tail":
            zero_sum = rng.random() < 0.5
            DA = _dist_matrix(rng, 3, TAIL_ATOMS)
            DB = DA if zero_sum else _dist_matrix(rng, 3, TAIL_ATOMS)
            return self._tail(DA, DB, zero_sum)
        zero_sum = rng.random() < 0.5
        DA = _dist_matrix(rng, 3, SEGMENT_ATOMS)
        DB = DA if zero_sum else _dist_matrix(rng, 3, SEGMENT_ATOMS)
        points = rng.choice(SEGMENT_PARTITIONS)
        m = len(points) - 1
        return self._pareto(DA, DB, zero_sum, points,
                            _weights(rng, m), _weights(rng, m))

    def _bimatrix(self, kind, A, B):
        lib = self.lib

        def call():
            return lib.solve_real.support_enumeration(
                lib.game_core.new_bimatrix(A, B))

        return Op(kind, call,
                  lambda out: gate.check_outcome(A, B, gate.outcome_doc(out)),
                  lambda out: gate.digest(gate.outcome_doc(out)))

    def _vector(self, kind, VA, VB):
        lib = self.lib

        def call():
            return lib.rlex_solve.decide_rlex_equilibria(
                lib.game_core.new_vector_game(VA, VB))

        return Op(kind, call,
                  lambda d: gate.check_decision(VA, VB, gate.decision_doc(d)),
                  lambda d: gate.digest(gate.decision_doc(d)))

    def _distribution_game(self, DA, DB, zero_sum):
        new = self.lib.dist.new_distribution
        A = [[new(*cell) for cell in row] for row in DA]
        B = None if zero_sum else [[new(*cell) for cell in row] for row in DB]
        return self.lib.game_core.new_distribution_game(A, B,
                                                        zero_sum=zero_sum)

    def _tail(self, DA, DB, zero_sum):
        VA, VB = gate.mass_vector_game(DA, DB, zero_sum)

        def call():
            return self.lib.rlex_solve.decide_tail_equilibria(
                self._distribution_game(DA, DB, zero_sum))

        return Op("tail", call,
                  lambda d: gate.check_decision(VA, VB, gate.decision_doc(d)),
                  lambda d: gate.digest(gate.decision_doc(d)))

    def _pareto(self, DA, DB, zero_sum, points, w1, w2):
        VA, VB = gate.segment_game(DA, DB, zero_sum, points)
        A, B = gate.scalarize(VA, VB, w1, w2)
        want = gate.vector_game_doc_from(VA, VB)
        pareto = self.lib.pareto

        def call():
            V = pareto.segment_game(
                self._distribution_game(DA, DB, zero_sum), points)
            return V, pareto.pareto_nash(V, w1, w2)

        def check(res):
            V, out = res
            return (gate.vector_game_doc(V) == want
                    and gate.check_outcome(A, B, gate.outcome_doc(out)))

        def digest(res):
            return gate.digest({"game": gate.vector_game_doc(res[0]),
                                "outcome": gate.outcome_doc(res[1])})

        return Op("pareto", call, check, digest)


# ------------------------------------------------------------ simulate

MC_Z = 4.0             # pooled estimates must sit within 4 standard errors
MC_MAX_INDETERMINATE = 0.001
FP_TOLERANCE = 1e-2    # at FP_ROUNDS rounds on uniform(0, 1) 3x3 games


class Simulate(Workload):
    """Seeded Monte Carlo estimates and final-record fictitious play.

    The shapes follow the acceptance workloads: pure-equilibrium
    probability of 2x2 and 3x3 games, zero-sum and bimatrix; the RLEX
    estimate on 2x2 games with 3-dimensional payoffs; FP on random 3x3
    zero-sum games keeping only the final record.
    """

    name = "simulate"
    BLOCK = ("pure2z", "pure3z", "pure2b", "pure3b", "rlex", "rlex", "fp",
             "fp")
    POOL_BLOCKS = 0        # ops are made per block: every MC seed is fresh
    PURE_TRIALS = {2: 500, 3: 400}
    RLEX_TRIALS = 16
    FP_ROUNDS = 20000
    FP_GAMES = 24

    def __init__(self, lib, seed, workdir):
        import numpy as np
        game_rng = np.random.default_rng((seed, 7))
        new = lib.game_core.new_bimatrix
        self.fp_games = []
        for _ in range(self.FP_GAMES):
            G = new(game_rng.random((3, 3)).tolist(), zero_sum=True)
            self.fp_games.append((G, float(lib.solve_real.zero_sum_value(G))))
        self.pooled: dict = {}     # op index -> [(key, ref, hits, trials, indet)]
        super().__init__(lib, seed, workdir)

    def block(self, b):
        return [self._make(kind, len(self.BLOCK) * b + p)
                for p, kind in enumerate(self.BLOCK)]

    def make(self, kind, index):
        mc_seed = self.seed * 1_000_003 + index
        if kind.startswith("pure"):
            m = int(kind[4])
            return self._pure(kind, m, kind.endswith("z"), mc_seed, index)
        if kind == "rlex":
            return self._rlex(mc_seed, index)
        G, value = self.fp_games[index % self.FP_GAMES]
        return self._fp(G, value)

    def _pure(self, kind, m, zero_sum, mc_seed, index):
        trials = self.PURE_TRIALS[m]
        ref = float(gate.pure_probability(m, m, zero_sum))
        mc = self.lib.mc

        def call():
            return mc.estimate_pure_probability(m, m, zero_sum, trials, mc_seed)

        def check(s):
            self.pooled[index] = [(kind, ref, s.hits, s.trials, 0)]
            return (s.trials == trials and 0 <= s.hits <= trials
                    and s.estimate == s.hits / trials and s.reference == ref)

        return Op(kind, call, check, units=("mc_trials", trials))

    def _rlex(self, mc_seed, index):
        trials = self.RLEX_TRIALS
        ref = float(gate.pure_probability(2, 2, False))
        mc = self.lib.mc

        def call():
            return mc.estimate_rlex_probability(2, 2, 3, False, trials, mc_seed)

        def check(res):
            rlex, top, nonpure, indet = res
            self.pooled[index] = [(key, ref, s.hits, trials, indet)
                                  for key, s in (("rlex", rlex),
                                                 ("rlex-top", top))]
            return (nonpure == 0 and rlex.reference == ref
                    and rlex.trials == top.trials == trials - indet)

        return Op("rlex", call, check, units=("mc_trials", trials))

    def _fp(self, G, value):
        rounds = self.FP_ROUNDS
        fp = self.lib.solve_real

        def call():
            return fp.fictitious_play(G, rounds, record_every=rounds)

        def check(records):
            return (len(records) == 1 and records[0].round == rounds
                    and abs(records[0].payoff1 - value) <= FP_TOLERANCE)

        return Op("fp", call, check, units=("fp_rounds", rounds))

    def warmup(self):
        mc = self.lib.mc
        mc.estimate_pure_probability(3, 3, False, 20, self.seed)
        mc.estimate_rlex_probability(2, 2, 3, False, 2, self.seed)
        G, _ = self.fp_games[0]
        self.lib.solve_real.fictitious_play(G, 200, record_every=200)

    def finish(self, tally):
        """Pooled estimates of distinct ops against the closed forms; a
        miss fails every op of the pool."""
        pools: dict = {}
        for entries in self.pooled.values():
            for key, ref, hits, trials, indet in entries:
                acc = pools.setdefault(key, [ref, 0, 0, 0, 0])
                acc[1] += hits
                acc[2] += trials
                acc[3] += indet
                acc[4] += 1
        for key, (ref, hits, trials, indet, ops) in pools.items():
            ok = gate.within_ci(hits, trials - indet, ref, MC_Z)
            ok = ok and indet <= MC_MAX_INDETERMINATE * trials
            if not ok:
                tally.fail(f"pooled-{key}", count=ops)


# ------------------------------------------------------------ cli-mix

CLI_FP_ROUNDS = 1500
CLI_FP_TOLERANCE = 0.1     # payoffs in [-5, 5], 1500 rounds


def _csv_rows(text):
    return list(csv.reader(io.StringIO(text)))


class CliMix(Workload):
    """In-process `distgames.cli.main(argv)` requests over every README
    subcommand, on generated JSON documents, in fixed shares.

    Each block also carries malformed requests that must exit 1, and one
    request that the README exit-code contract says must be handled but
    that the library gets wrong today (a known defect, rotating over four).
    """

    name = "cli-mix"
    # Most requests are cheap, as in interactive use, so the median sits
    # inside the cheap cluster (about 5 ms); six requests of about 40 ms
    # (se4, sweep, mc, fp) make a fifth of a block, so the 90th
    # percentile sits inside their cluster rather than at its edge.
    BLOCK = ("se3", "se4", "se4", "pure12", "dom12", "rlex", "tail",
             "cmp-exp", "cmp-exp", "cmp-st", "cmp-st", "cmp-tail", "cmp-tail",
             "cmp-tweak", "cmp-tweak", "segment", "pareto", "sweep",
             "mc-pure", "mc-rlex", "fp", "geom", "shift", "alt", "momcheck",
             "momcheck", "malformed", "malformed", "defect")
    POOL_BLOCKS = 8
    MALFORMED = ("bad-json", "bad-rows", "bad-partition", "bad-usage",
                 "wrong-type")
    DEFECTS = ("alt-moments-digits", "pure-infinity", "st-nan",
               "zero-sum-string")
    WARMUP_KINDS = ("se3", "pure12", "rlex", "cmp-exp", "segment", "geom")

    def __init__(self, lib, seed, workdir):
        self.files = 0
        super().__init__(lib, seed, workdir)

    # -- documents

    def _write(self, obj, raw: str | None = None) -> str:
        self.files += 1
        path = os.path.join(self.workdir, f"d{self.files}.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(raw if raw is not None else json.dumps(obj))
        return path

    def _bimatrix_doc(self, A, B=None, zero_sum=False):
        doc = {"type": "bimatrix", "A": [[gate.fmt(v) for v in r] for r in A]}
        if zero_sum:
            doc["zero_sum"] = True
        else:
            doc["B"] = [[gate.fmt(v) for v in r] for r in B]
        return doc

    def _vector_doc(self, VA, VB):
        return {"type": "vector", "dim": len(VA[0][0]),
                "A": [[[gate.fmt(c) for c in cell] for cell in r] for r in VA],
                "B": [[[gate.fmt(c) for c in cell] for cell in r] for r in VB]}

    @staticmethod
    def _dist_doc(cell):
        return {"atoms": [gate.fmt(a) for a in cell[0]],
                "masses": [gate.fmt(m) for m in cell[1]]}

    def _distribution_doc(self, DA, DB, zero_sum):
        doc = {"type": "distribution",
               "A": [[self._dist_doc(c) for c in r] for r in DA]}
        if zero_sum:
            doc["zero_sum"] = True
        else:
            doc["B"] = [[self._dist_doc(c) for c in r] for r in DB]
        return doc

    # -- requests

    def _request(self, kind, argv, check, exact=True, known_defect=False,
                 units=None):
        main = self.lib.cli

        def call():
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                try:
                    rc = main.main(argv)
                except SystemExit as e:
                    rc = e.code
            return rc, out.getvalue(), err.getvalue()

        def checked(res):
            rc, out, err = res
            try:
                return check(rc, out, err)
            except (ValueError, KeyError, TypeError, IndexError):
                return False

        digest = (lambda res: gate.digest(res[1])) if exact else None
        return Op(kind, call, checked, digest, known_defect, units)

    def make(self, kind, index):
        rng = self.rng
        if kind == "malformed":
            return self._malformed(self.MALFORMED[index % len(self.MALFORMED)])
        if kind == "defect":
            block = index // len(self.BLOCK)
            return self._defect(self.DEFECTS[block % len(self.DEFECTS)])
        if kind in ("se3", "se4"):
            n = int(kind[-1])
            zero_sum = rng.random() < 0.3
            A = _matrix(rng, n, n, _frac)
            B = [[-v for v in r] for r in A] if zero_sum else \
                _matrix(rng, n, n, _frac)
            path = self._write(self._bimatrix_doc(A, B, zero_sum))
            return self._request(kind, ["solve", "--input", path], lambda rc, out, err: (
                rc == 0 and gate.check_outcome(A, B, json.loads(out))))
        if kind in ("pure12", "dom12"):
            A = _matrix(rng, 12, 12, lambda r: r.randint(0, 9))
            B = _matrix(rng, 12, 12, lambda r: r.randint(0, 9))
            if kind == "dom12" and rng.random() < 0.5:
                i, j = rng.randrange(12), rng.randrange(12)
                A[i] = [10] * 12
                for row in B:
                    row[j] = 10
            method = "pure" if kind == "pure12" else "dominant"
            if method == "pure":
                cells = gate.pure_cells(A, B)
            else:
                cell = gate.dominant_cell(A, B)
                cells = [] if cell is None else [cell]
            path = self._write(self._bimatrix_doc(A, B))
            return self._request(
                kind, ["solve", "--input", path, "--method", method],
                lambda rc, out, err: rc == 0 and gate.check_pure_listing(
                    A, B, json.loads(out), cells))
        if kind == "rlex":
            VA, VB = _vector_matrix(rng, 3, 3), _vector_matrix(rng, 3, 3)
            path = self._write(self._vector_doc(VA, VB))
            return self._decide(kind, "rlex-decide", path, VA, VB)
        if kind == "tail":
            zero_sum = rng.random() < 0.5
            DA = _dist_matrix(rng, 3, TAIL_ATOMS)
            DB = DA if zero_sum else _dist_matrix(rng, 3, TAIL_ATOMS)
            VA, VB = gate.mass_vector_game(DA, DB, zero_sum)
            path = self._write(self._distribution_doc(DA, DB, zero_sum))
            return self._decide(kind, "tail-decide", path, VA, VB)
        if kind.startswith("cmp-"):
            return self._compare(kind[4:])
        if kind in ("segment", "pareto", "sweep"):
            return self._multiobjective(kind)
        if kind == "mc-pure":
            zero_sum = rng.random() < 0.5
            trials = 400
            argv = ["mc", "pure", "--m", "3", "--n", "3", "--trials",
                    str(trials), "--seed", str(rng.randrange(10 ** 6))]
            if zero_sum:
                argv.append("--zero-sum")
            ref = float(gate.pure_probability(3, 3, zero_sum))
            return self._request(kind, argv, lambda rc, out, err: (
                rc == 0 and self._mc_row_ok(out, trials, ref, rlex=False)),
                exact=False, units=("mc_trials", trials))
        if kind == "mc-rlex":
            trials = 16
            argv = ["mc", "rlex", "--m", "2", "--n", "2", "--dim", "3",
                    "--trials", str(trials), "--seed",
                    str(rng.randrange(10 ** 6))]
            ref = float(gate.pure_probability(2, 2, False))
            return self._request(kind, argv, lambda rc, out, err: (
                rc == 0 and self._mc_row_ok(out, trials, ref, rlex=True)),
                exact=False, units=("mc_trials", trials))
        if kind == "fp":
            return self._fp()
        if kind in ("geom", "shift", "alt"):
            return self._construct(kind)
        return self._momcheck()

    def _decide(self, kind, command, path, VA, VB):
        def check(rc, out, err):
            doc = json.loads(out)
            want_rc = 2 if doc["status"] == "Indeterminate" else 0
            return rc == want_rc and gate.check_decision(VA, VB, doc)

        return self._request(kind, [command, "--input", path], check)

    def _compare(self, order):
        rng = self.rng
        if order == "tweak":
            atoms, points = SEGMENT_ATOMS, rng.choice(SEGMENT_PARTITIONS)
        else:
            atoms, points = TAIL_ATOMS, None
        P1, P2 = _distribution(rng, atoms), _distribution(rng, atoms)
        argv = ["compare", "--order", order,
                "--p1", self._write(self._dist_doc(P1)),
                "--p2", self._write(self._dist_doc(P2))]
        if points:
            argv += ["--partition", ",".join(str(p) for p in points)]
        want = gate.compare(order, P1, P2, points) + "\n"
        return self._request(f"cmp-{order}", argv,
                             lambda rc, out, err: rc == 0 and out == want)

    def _multiobjective(self, kind):
        rng = self.rng
        if kind == "segment":
            zero_sum = rng.random() < 0.5
            DA = _dist_matrix(rng, 3, SEGMENT_ATOMS)
            DB = DA if zero_sum else _dist_matrix(rng, 3, SEGMENT_ATOMS)
            points = rng.choice(SEGMENT_PARTITIONS)
            want = gate.vector_game_doc_from(
                *gate.segment_game(DA, DB, zero_sum, points))
            path = self._write(self._distribution_doc(DA, DB, zero_sum))
            argv = ["segment", "--input", path, "--partition",
                    ",".join(str(p) for p in points)]
            return self._request(kind, argv, lambda rc, out, err: (
                rc == 0 and gate.vector_game_doc_from(
                    *self._parse_vector(json.loads(out))) == want))
        VA, VB = _vector_matrix(rng, 3, 3), _vector_matrix(rng, 3, 3)
        path = self._write(self._vector_doc(VA, VB))
        if kind == "pareto":
            w1, w2 = _weights(rng, 3), _weights(rng, 3)
            A, B = gate.scalarize(VA, VB, w1, w2)
            argv = ["pareto", "--input", path, "--weights",
                    ",".join(map(str, w1)) + ";" + ",".join(map(str, w2))]
            return self._request(kind, argv, lambda rc, out, err: (
                rc == 0 and gate.check_outcome(A, B, json.loads(out))))
        samples = 4
        argv = ["sweep", "--input", path, "--samples", str(samples),
                "--seed", str(rng.randrange(10 ** 6))]
        return self._request(kind, argv, lambda rc, out, err: (
            rc == 0 and self._sweep_ok(out, samples)), exact=False)

    @staticmethod
    def _parse_vector(doc):
        if doc["type"] != "vector":
            raise ValueError("not a vector document")
        VA = [[[gate.num(c) for c in cell] for cell in r] for r in doc["A"]]
        VB = [[[gate.num(c) for c in cell] for cell in r] for r in doc["B"]]
        return VA, VB

    @staticmethod
    def _sweep_ok(out, samples):
        rows = _csv_rows(out)
        if rows[0][0] != "trial" or len(rows) != samples + 1:
            return False
        head = rows[0]
        for row in rows[1:]:
            for prefix in ("w1_", "w2_", "x_", "y_"):
                vals = [float(v) for h, v in zip(head, row)
                        if h.startswith(prefix) and v]
                if vals and abs(sum(vals) - 1) > 1e-9:
                    return False
        return True

    @staticmethod
    def _mc_row_ok(out, trials, ref, rlex):
        head, row = _csv_rows(out)
        rec = dict(zip(head, row))
        hits = int(rec["hits"])
        ok = (float(rec["reference"]) == ref and 0 <= hits
              and abs(float(rec["estimate"]) * int(rec["trials"]) - hits)
              < 1e-6)
        if rlex:
            return ok and rec["nonpure_found"] == "0" and \
                int(rec["trials"]) == trials - int(rec["indeterminate"])
        return ok and int(rec["trials"]) == trials

    def _fp(self):
        rng = self.rng
        A = _matrix(rng, 3, 3, lambda r: r.randint(-5, 5))
        G = self.lib.game_core.new_bimatrix(A, zero_sum=True)
        value = float(self.lib.solve_real.zero_sum_value(G))
        path = self._write(self._bimatrix_doc(A, zero_sum=True))
        rounds = CLI_FP_ROUNDS

        def check(rc, out, err):
            lines = out.splitlines()
            last = lines[-1].split(",")
            return (rc == 0 and len(lines) == rounds + 1
                    and lines[0].startswith("round,x_1")
                    and last[0] == str(rounds)
                    and abs(float(last[-1]) - value) <= CLI_FP_TOLERANCE)

        return self._request("fp", ["fp", "--input", path, "--rounds",
                                    str(rounds), "--record-every", "1"],
                             check, exact=False, units=("fp_rounds", rounds))

    def _construct(self, kind):
        rng = self.rng
        if kind == "geom":
            c, versus = rng.choice(((2, 3), (3, 2), (3, 5), (5, 3)))
            terms = rng.randint(8, 14)
            argv = ["construct", "geom", "--c", str(c), "--terms", str(terms),
                    "--versus", str(versus)]

            def check(rc, out, err):
                seq = json.loads(out)["sequence"]
                cf = F(c)
                return (rc == 0 and
                        [gate.num(a) for a in seq["atoms"]] ==
                        [2 - cf ** -k for k in range(1, terms + 1)] and
                        [gate.num(m) for m in seq["masses"]] ==
                        [(cf - 1) * cf ** -k for k in range(1, terms + 1)])

            return self._request(kind, argv, check)
        if kind == "shift":
            n = rng.randint(3, 6)
            atoms = [2 - F(1, k + 1) for k in range(1, n + 1)]
            masses = [F(1, 2) ** k for k in range(1, n + 1)]
            argv = ["construct", "shift",
                    "--atoms", ",".join(map(str, atoms)),
                    "--masses", ",".join(map(str, masses)), "--bound", "2"]

            def check(rc, out, err):
                return rc == 0 and gate.check_shift(atoms, masses,
                                                    json.loads(out))

            return self._request(kind, argv, check)
        terms = rng.choice((3, 4))
        use_csv = rng.random() < 0.5
        return self._alt_moments(kind, terms, use_csv)

    def _alt_moments(self, kind, terms, use_csv, known_defect=False):
        argv = ["construct", "alt-moments", "--a", "1", "--b", "2",
                "--terms", str(terms)] + (["--csv"] if use_csv else [])

        def check(rc, out, err):
            if rc != 0:
                return False
            if use_csv:
                rows = _csv_rows(out)
                return rows[0] == ["k", "lower", "upper"] and \
                    len(rows) == terms and all(
                        gate.num(lo) > gate.num(up) for _, lo, up in rows[1:])
            doc = json.loads(out)
            return doc["verified"] is True and \
                gate.check_alternation(doc, terms)

        return self._request(kind, argv, check, exact=not known_defect,
                             known_defect=known_defect)

    def _momcheck(self):
        rng = self.rng
        condition = rng.choice(("cm", "nonneg", "interval"))
        if rng.random() < 0.5:       # moments of a distribution on [0, 2]
            atoms = [F(rng.randint(0, 4), 2) for _ in range(2)]
            seq = [sum(a ** k for a in atoms) / 2 for k in range(8)]
        else:
            seq = [F(rng.randint(-4, 12), rng.randint(1, 3)) for _ in range(8)]
        b = rng.choice((2, 3, 5))
        path = self._write([gate.fmt(v) for v in seq])
        argv = ["momcheck", "--seq", path, "--condition", condition]
        if condition == "interval":
            argv += ["--b", str(b)]
        want = gate.first_violation(seq, condition, b)

        def check(rc, out, err):
            doc = json.loads(out)
            return rc == 0 and doc == {"holds": want is None,
                                       "first_violation": want}

        return self._request("momcheck", argv, check)

    def _malformed(self, what):
        rng = self.rng
        if what == "bad-json":
            argv = ["solve", "--input", self._write(None, raw='{"type": "bim')]
        elif what == "bad-rows":
            doc = self._bimatrix_doc(_matrix(rng, 2, 2, _small_int),
                                     _matrix(rng, 2, 2, _small_int))
            doc["rows"] = 3
            argv = ["solve", "--input", self._write(doc)]
        elif what == "bad-partition":
            P = _distribution(rng, TAIL_ATOMS)
            argv = ["compare", "--order", "tweak",
                    "--p1", self._write(self._dist_doc(P)),
                    "--p2", self._write(self._dist_doc(P)),
                    "--partition", "7,8,9"]
        elif what == "bad-usage":
            argv = ["mc", "pure", "--m", "3", "--trials", "10"]
        else:
            VA = _vector_matrix(rng, 2, 2)
            argv = ["solve", "--input", self._write(self._vector_doc(VA, VA))]
        return self._request(what, argv, self._rejected, exact=False)

    @staticmethod
    def _rejected(rc, out, err):
        return rc == 1 and out == "" and err.startswith("error")

    def _defect(self, what):
        """Requests the README contract covers and the library mishandles:
        valid input that must succeed, or non-finite and wrongly typed
        input that must be rejected with exit 1."""
        rng = self.rng
        if what == "alt-moments-digits":
            return self._alt_moments(what, 5, False, known_defect=True)
        if what == "pure-infinity":
            A = _matrix(rng, 3, 3, _small_int)
            doc = self._bimatrix_doc(A, _matrix(rng, 3, 3, _small_int))
            doc["A"][rng.randrange(3)][rng.randrange(3)] = float("inf")
            argv = ["solve", "--input", self._write(doc), "--method", "pure"]
        elif what == "st-nan":
            argv = ["compare", "--order", "st",
                    "--p1", self._write({"atoms": [float("nan")],
                                         "masses": [1]}),
                    "--p2", self._write(self._dist_doc(
                        _distribution(rng, TAIL_ATOMS)))]
        else:
            doc = self._bimatrix_doc(_matrix(rng, 2, 2, _small_int),
                                     zero_sum=True)
            doc["zero_sum"] = "false"
            argv = ["solve", "--input", self._write(doc)]
        return self._request(what, argv, self._rejected, exact=False,
                             known_defect=True)
