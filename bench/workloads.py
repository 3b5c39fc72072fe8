"""The four workloads.

Each workload makes the inputs of pass k from the seed (`inputs`), runs one
pass through choosekit's public entry points (`run_pass`, the only timed
code), and checks the pass afterwards (`check`).  `ck` is a namespace of
freshly imported choosekit modules.  All calls into choosekit go through
`tracer.call`, or, where the program itself makes the call, through a
wrapper the traced run installs (`instrument`).
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass

import checks
from spans import OFF
from speed import clock

#: decide_choosable's node budget, passed explicitly so that CHOOSEKIT_BUDGET
#: cannot change the workload.
FRONTIER_BUDGET = 5_000_000


@dataclass
class Item:
    start: float  # speed.clock() when the call began
    seconds: float
    output: object = None
    error: str | None = None


def _timed(fn, *args) -> Item:
    start = clock()
    try:
        out = fn(*args)
    except Exception as exc:  # a failed item is counted, and the run goes on
        return Item(start, clock() - start, error=f"{type(exc).__name__}: {exc}")
    return Item(start, clock() - start, out)


def _found(out, *args, **kwargs):
    return {"found": bool(out[0])}


def _trials(out, *args, **kwargs):
    return {"trials": out.trials}


class Workload:
    """A pass is a list of inputs, one timed call (`_item`) each."""

    latency = True  # item percentiles describe the workload
    rounds: int  # timed rounds over the same passes; figures keep each call's fastest

    def __init__(self, workdir):
        pass

    def instrument(self, ck, tracer):
        pass

    def run_pass(self, ck, inputs, tracer):
        return [_timed(self._item, ck, d, tracer) for d in inputs]

    def check(self, ck, inputs, items):
        return [[i.error] if i.error else self._problems(d, i.output)
                for d, i in zip(inputs, items)]


class Frontier(Workload):
    """`choosekit frontier` in-process over two grids, 44 cells per pass."""

    name = "frontier"
    GRIDS = ((2, 3, 3, 8), (3, 2, 5, 4))  # (ka, kb, maxA, maxB)
    latency = False  # one timed call covers a whole grid
    rounds = 2  # a pass takes ~13 reference seconds, more than --seconds / 2

    def __init__(self, workdir):
        self.out_path = os.path.join(workdir, "frontier.csv")
        self.reference = checks.load_frontier_reference()
        self.witnesses = []

    def inputs(self, seed, k):
        return [list(g) for g in self.GRIDS]  # deterministic by design

    def _argv(self, grid):
        ka, kb, max_a, max_b = grid
        return ["frontier", "--ka", str(ka), "--kb", str(kb), "--maxA", str(max_a),
                "--maxB", str(max_b), "--budget", str(FRONTIER_BUDGET), "--jobs", "1",
                "--out", self.out_path]

    def _item(self, ck, grid, tracer):
        # Reading the CSV back is outside the program but inside the timed
        # call; it is a few kilobytes against seconds of search.
        rc = tracer.call("cli.main", ck.cli.main, self._argv(grid))
        with open(self.out_path) as fh:
            return rc, fh.read()

    def warm_up(self, ck):
        ck.cli.main(self._argv((2, 2, 2, 4)))

    def instrument(self, ck, tracer):
        def annotate(verdict, point, **kwargs):
            cell = (point.delta_a, point.delta_b, point.ka, point.kb)
            if verdict.tag == "unchoosable":
                self.witnesses.append((cell, verdict.witness))
            return {"tag": verdict.tag, "nodes": verdict.nodes_explored, "point": list(cell)}

        tracer.replace(ck.checker, "decide_choosable",
                       tracer.wrap("checker.decide_choosable", ck.checker.decide_choosable, annotate))

    def check(self, ck, grids, items):
        classify = lambda c: ck.bounds.classify(ck.model.RegimePoint(*c))
        out = []
        for grid, item in zip(grids, items):
            if item.error:
                out += [[item.error]] * (grid[2] * grid[3])
                continue
            rc, text = item.output
            per_cell = checks.frontier_problems(tuple(grid), text, rc, self.reference, classify)
            for cell, witness in self.witnesses:  # filled by the traced run only
                if cell in per_cell:
                    per_cell[cell] += checks.witness_problems(
                        cell, witness, ck.checker.has_proper_coloring)
            out += list(per_cell.values())
        self.witnesses.clear()
        return out

    @staticmethod
    def decided(items) -> int:
        """Cells of a pass that end choosable or unchoosable."""
        return sum(row.split(",")[5] in checks.DECIDED
                   for item in items if not item.error
                   for row in item.output[1].splitlines()[1:])


class Check(Workload):
    """Colourability of seeded list assignments and of uncolourable witnesses."""

    name = "check"
    rounds = 6  # items take ~1 ms: a 2 s round still holds over a thousand instances
    #: (ka, kb) -> (universe, A-vertices, B-vertices); sized so that roughly a
    #: third to a half of the random instances are colourable.
    CLASSES = {(2, 2): (12, 20, 10), (2, 3): (12, 20, 25), (2, 4): (12, 20, 50),
               (3, 2): (12, 20, 25), (3, 3): (8, 40, 25)}
    PER_CLASS = 20
    #: Block specs (ka, a) whose construction, r=2 blowup or s=2 expansion is
    #: checked by both engines in milliseconds.
    BLOCKS = ((2, (1,)), (2, (2,)), (2, (3,)), (2, (1, 1)), (2, (1, 2)), (2, (2, 2)),
              (2, (1, 1, 1)), (3, (1,)), (3, (2,)), (3, (1, 1)), (3, (3,)), (4, (1,)))
    BLOWUP = ((2, (1,)), (2, (2,)), (2, (1, 1)), (2, (1, 2)), (2, (1, 1, 1)), (3, (1,)),
              (3, (2,)), (3, (1, 1)), (4, (1,)))
    EXPAND = ((2, (1,)), (2, (2,)), (2, (1, 1)), (2, (1, 1, 1)), (3, (1,)), (4, (1,)))
    SIM_P, SIM_TRIALS = 0.5, 200
    RESTARTS = 10

    def __init__(self, workdir):
        self.mix = {}
        self.oracle = {}  # input as bytes -> colourable

    def _colorable(self, d):
        """The oracle's verdict on input `d`, worked out once: each round
        repeats the first round's inputs.  Keyed by the input packed into a
        byte per number (all are below 256), so the cache stays small next
        to the program's memory."""
        a, b = d["aLists"], d["bLists"]
        key = bytes([d["universe"], d["kA"], d["kB"], len(a), len(b),
                     *(c for lst in a + b for c in lst)])
        if key not in self.oracle:
            self.oracle[key] = checks.colorable_oracle(d["universe"], d["aLists"], d["bLists"])
        return self.oracle[key]

    def inputs(self, seed, k):
        rng = random.Random(f"check:{seed}:{k}")
        items = []
        for (ka, kb), (u, na, nb) in self.CLASSES.items():
            for _ in range(self.PER_CLASS):
                items.append({"kind": "random", "universe": u, "kA": ka, "kB": kb,
                              "aLists": [sorted(rng.sample(range(u), ka)) for _ in range(na)],
                              "bLists": [sorted(rng.sample(range(u), kb)) for _ in range(nb)],
                              "seed": rng.randrange(2**31)})
        for kind, specs in (("blocks", self.BLOCKS), ("blowup", self.BLOWUP), ("expand", self.EXPAND)):
            items += [{"kind": kind, "ka": ka, "a": list(a), "seed": rng.randrange(2**31)}
                      for ka, a in specs]
        return items

    def warm_up(self, ck):
        for item in self.inputs(0, 0)[::self.PER_CLASS]:
            self._item(ck, item, OFF)

    def _item(self, ck, d, tracer):
        if d["kind"] == "random":
            inst = ck.model.ListInstance.complete(d["universe"], d["kA"], d["kB"],
                                                  d["aLists"], d["bLists"])
        else:
            inst = tracer.call("constructions.construct_blocks", ck.constructions.construct_blocks,
                               ck.constructions.BlockSpec(d["ka"], tuple(d["a"])))
            if d["kind"] != "blocks":
                inst = tracer.call(f"amplify.{d['kind']}", getattr(ck.amplify, d["kind"]), inst, 2)
        out = {"instance": inst}
        out["roundtrip"] = tracer.call(
            "model.instance_roundtrip",
            lambda i: ck.model.instance_from_dict(ck.model.instance_to_dict(i)), inst)
        engines = ("transversal", "backtracking") if inst.is_complete else ("backtracking",)
        for engine in engines:
            out[engine] = tracer.call(f"checker.has_proper_coloring.{engine}",
                                      ck.checker.has_proper_coloring, inst, engine=engine,
                                      annotate=_found)
        found = out[engines[0]][0]
        if d["kind"] != "random":
            out["sim"] = tracer.call("checker.simulate_reserve_coloring",
                                     ck.checker.simulate_reserve_coloring, inst, self.SIM_P,
                                     self.SIM_TRIALS, d["seed"], annotate=_trials)
        elif inst.ka == 2 and found:
            system = tracer.call("model.to_color_system", ck.model.to_color_system, inst)
            out["system"] = system
            out["certificate"] = tracer.call(
                "indepset.random_transversal_search", ck.indepset.random_transversal_search,
                system, self.RESTARTS, d["seed"], annotate=lambda c, *a: {"hit": c is not None})
        return out

    def _problems(self, d, got):
        inst = got["instance"]
        problems = []
        if got["roundtrip"] != inst:
            problems.append("instance_to_dict/instance_from_dict round trip changed the instance")
        valid = False
        for engine in ("transversal", "backtracking"):
            found, coloring = got.get(engine, (False, None))
            if found:
                bad = checks.coloring_problems(inst, coloring)
                problems += [f"{engine}: {p}" for p in bad]
                valid = valid or not bad
        if d["kind"] == "random":
            # A validated colouring certifies colourable; else ask the oracle.
            want = valid or self._colorable(d)
            key = f"{inst.ka}x{inst.kb}"
            tally = self.mix.setdefault(key, {"colorable": 0, "uncolorable": 0})
            tally["colorable" if want else "uncolorable"] += 1
        else:
            want = False  # uncolourable by theorem
            if got["sim"].successes:
                problems.append(f"reserve colouring succeeded {got['sim'].successes} times")
        problems += [f"{engine} says {got[engine][0]}, reference {want}"
                     for engine in ("transversal", "backtracking")
                     if engine in got and got[engine][0] != want]
        if got.get("certificate") is not None:
            problems += checks.transversal_problems(got["system"].edges, got["system"].family,
                                                    got["certificate"])
        return problems


class Blocking(Workload):
    """Exact and sampled blocking probability of seeded S/T graphs."""

    name = "blocking"
    #: (|S|, |T|, T-neighbours of each S-vertex, graphs per pass): balanced
    #: and dense (a few ms in p_blocked_exact) down to small S, large T and
    #: sparse (~0.2 s).  A fixed S-degree keeps the time of one shape about
    #: three times steadier than a fixed edge density does.
    SHAPES = ((10, 10, 5, 3), (12, 8, 3, 3), (14, 6, 2, 2), (10, 10, 3, 2), (9, 11, 2, 2),
              (8, 12, 3, 2), (7, 13, 2, 1), (6, 14, 3, 1), (3, 5, 2, 2), (4, 4, 2, 2))
    #: (a, j): j disjoint copies of K_{a,a}, where p equals the bound 2^-j.
    EQUALITY = ((1, 1), (2, 1), (3, 1), (1, 4), (2, 2), (3, 2), (2, 3), (4, 2), (5, 2), (3, 3))
    MC_TRIALS = 20_000
    #: A round holds >= 100 graphs, about 3 reference seconds.  The inputs'
    #: own work (memo states of p_blocked_exact) differs by 1.4 % across seeds.
    rounds = 4

    def inputs(self, seed, k):
        rng = random.Random(f"blocking:{seed}:{k}")
        graphs = []
        for s, t, degree, count in self.SHAPES:
            for _ in range(count):
                edges = sorted([i, j] for i in range(s) for j in rng.sample(range(t), degree))
                graphs.append({"s": s, "t": t, "edges": edges, "j": None,
                               "seed": rng.randrange(2**31)})
        a, j = rng.choice(self.EQUALITY)
        graphs.append({"s": a * j, "t": a * j, "j": j, "seed": rng.randrange(2**31),
                       "edges": [[c * a + i, c * a + x] for c in range(j)
                                 for i in range(a) for x in range(a)]})
        return graphs

    def warm_up(self, ck):
        self._item(ck, self.inputs(0, 0)[-1], OFF)

    def _item(self, ck, d, tracer):
        g = ck.indepset.STGraph.make(d["s"], d["t"], d["edges"])
        p = tracer.call("indepset.p_blocked_exact", ck.indepset.p_blocked_exact, g)
        mc = tracer.call("indepset.p_blocked_monte_carlo", ck.indepset.p_blocked_monte_carlo,
                         g, self.MC_TRIALS, d["seed"], annotate=_trials)
        bound = tracer.call("indepset.fancy_bound", ck.indepset.fancy_bound, g)
        return p, mc, bound

    def _problems(self, d, output):
        return checks.blocking_problems((d["s"], d["t"], d["edges"]), *output, equality_j=d["j"])


class Selftest(Workload):
    """acceptance.run_criteria(): ten criteria per pass."""

    name = "selftest"
    latency = False  # criterion 9 is ~90 % of a pass; a criterion percentile says little
    rounds = 4  # one pass of ~3.1 reference seconds per round

    def __init__(self, workdir):
        self.reference = checks.load_selftest_reference()

    def inputs(self, seed, k):
        return None  # deterministic by design

    def warm_up(self, ck):
        ck.acceptance.run_criteria({6, 7, 8})

    def run_pass(self, ck, inputs, tracer):
        """One run_criteria() call, with each criterion timed from outside:
        an item per criterion, each holding the call's output."""
        acc = ck.acceptance
        times = []

        def timer(fn):
            def timed(*args, **kwargs):
                start = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    times.append((start, clock() - start))
            return timed

        criteria = acc.CRITERIA
        acc.CRITERIA = tuple(timer(fn) for fn in criteria)
        try:
            item = _timed(acc.run_criteria)
        finally:
            acc.CRITERIA = criteria
        if item.error:
            return [item]
        return [Item(start, t, item.output) for start, t in times]

    def instrument(self, ck, tracer):
        acc = ck.acceptance
        tracer.replace(acc, "CRITERIA", tuple(
            tracer.wrap(f"acceptance.{fn.__name__}", fn) for fn in acc.CRITERIA))

    def check(self, ck, inputs, items):
        item = items[0]
        if item.error:
            return [[item.error]] * 10
        return list(checks.selftest_problems(item.output, self.reference).values())


WORKLOADS = {w.name: w for w in (Frontier, Check, Blocking, Selftest)}
