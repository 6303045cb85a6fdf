"""The five workloads: their inputs, one timed round, and its checked outputs.

A round is one closed-loop call (or, for ``h3-enum``, one pass of four calls)
into the public API; the next call is issued only after the previous one
returns.  Every round returns the outputs the benchmark checks, the number of
work units it did (Monte-Carlo repetitions, or candidate subsets for
``h3-enum``) and per-part timings that feed the per-layer report.  Calls go
through module attributes (``harness.run_experiment``, not a name bound at
import), so the tracer's wrappers see them.
"""

from __future__ import annotations

import contextlib
import io
import time
from dataclasses import dataclass, field

import m3ab.cli as cli
import m3ab.complexity as complexity
import m3ab.harness as harness
from m3ab.instances import preset

# Golden outputs are recorded at this seed (the CLI's default master seed).
GOLDEN_SEED = 0


@dataclass
class Round:
    outputs: dict
    units: int
    # Per-part microseconds per unit (cells) or seconds per call (h3-enum).
    parts: dict = field(default_factory=dict)
    stdout_bytes: int = 0


class Experiment:
    """Monte-Carlo cells of one instance and budget via ``run_experiment``,
    in one process (``threads=1``) with the fast ``means`` reward source."""

    unit = "rep"
    seeded = True

    def __init__(self, name, instance, algorithms, budget, repetitions):
        self.name = name
        self._instance = instance
        self.algorithms = algorithms
        self.budget = budget
        self.repetitions = repetitions

    def build(self):
        self.instance = self._instance()

    def _config(self, seed, repetitions):
        return harness.ExperimentConfig(
            instance=self.instance, algorithms=self.algorithms,
            budgets=(self.budget,), repetitions=repetitions,
            master_seed=seed, reward_source="means")

    def warmup(self):
        harness.run_experiment(self._config(GOLDEN_SEED, 1), threads=1)

    def golden_round(self, golden):
        """The call that re-checks the golden outputs, and what it must give."""
        return self.run, golden

    def run(self, seed):
        report = harness.run_experiment(self._config(seed, self.repetitions),
                                        threads=1)
        return Round(
            outputs={f"{c.algorithm}@{c.budget}": [
                c.exploration_successes, c.validation_successes,
                c.type1_errors] for c in report.cells},
            units=len(report.cells) * self.repetitions,
            parts={c.algorithm: c.seconds / c.repetitions * 1e6
                   for c in report.cells})

    def check(self, key, got):
        """Invariants that hold at any seed."""
        return (len(got) == 3 and all(0 <= n <= self.repetitions for n in got)
                and got[1] + got[2] <= self.repetitions)


class Sweep:
    """The ``m3ab sweep`` command on exp2 (acceptance #5 cells), run through
    ``cli.main`` in this process with stdout captured; ``--threads 2`` makes
    the harness create one two-worker process pool per cell."""

    unit = "rep"
    seeded = True
    algorithms = ("shrvar", "shvar", "sh")
    values = (0, 1, 2, 3, 4, 5)
    repetitions = 500
    threads = 2

    def __init__(self, name):
        self.name = name

    def argv(self, seed, threads, values=values, algorithms=algorithms,
             repetitions=repetitions):
        argv = ["sweep", "--preset", "exp2", "--param", "l",
                "--values", ",".join(map(str, values)), "--budget", "500"]
        for algo in algorithms:
            argv += ["--algo", algo]
        return argv + ["--reps", str(repetitions), "--seed", str(seed),
                       "--threads", str(threads)]

    def build(self):
        pass  # the command builds its instances itself (one preset per l)

    def _main(self, argv):
        out, err = io.StringIO(), io.StringIO()
        reports = []
        sweep = cli.sweep

        def capture(*args, **kwargs):
            reports.extend(sweep(*args, **kwargs))
            return reports

        cli.sweep = capture  # one call per round: keeps the CellReports
        try:
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                code = cli.main(argv)
        finally:
            cli.sweep = sweep
        if code != 0:
            raise RuntimeError(f"m3ab {' '.join(argv)} exited {code}: "
                               f"{err.getvalue().strip()}")
        return out.getvalue(), reports

    def warmup(self):
        self._main(self.argv(GOLDEN_SEED, self.threads, values=(0,),
                             algorithms=("shrvar",), repetitions=1))

    def golden_round(self, golden):
        """Only the l=0 rows: they are the golden CSV's first rows (same seed
        substream), at a sixth of the cost of the whole sweep."""
        head = golden["csv"].splitlines(keepends=True)[:1 + len(self.algorithms)]
        return (lambda seed: self.run(seed, values=self.values[:1]),
                {"csv": "".join(head)})

    def run(self, seed, threads=threads, values=values):
        text, reports = self._main(self.argv(seed, threads, values=values))
        cells = [c for r in reports for c in r.cells]
        parts = {}
        for algo in self.algorithms:
            seconds = [c.seconds for c in cells if c.algorithm == algo]
            parts[algo] = sum(seconds) / (len(seconds) * self.repetitions) * 1e6
        return Round(outputs={"csv": text},
                     units=len(cells) * self.repetitions, parts=parts,
                     stdout_bytes=len(text.encode()))

    def check(self, key, got):
        lines = got.splitlines()
        return (len(lines) > 1 and (len(lines) - 1) % len(self.algorithms) == 0
                and lines[0].startswith("param,value,algo"))


class Enumeration:
    """Exhaustive ``h3`` subset enumeration (2^(A-1) subsets per call)."""

    unit = "subset"
    seeded = False  # fixed instances: the outputs are the same at every seed

    def __init__(self, name):
        self.name = name

    def build(self):
        self.exp1 = preset("exp1")
        self.exp3_a20 = preset("exp3", seed=7, num_treatments=20)
        self.exp3_a128 = preset("exp3", seed=7)
        self.calls = (
            ("h3_s.A16", lambda: _report(complexity.h3(self.exp1)), 2**15),
            ("h3_tilde_s.A16",
             lambda: complexity.h3_tilde(self.exp1, 8000), 2**15),
            ("h3_s.A20", lambda: _report(complexity.h3(self.exp3_a20)), 2**19),
            ("h3_prime_s.A128",
             lambda: complexity.h3_prime(self.exp3_a128), 0),
        )

    def warmup(self):
        complexity.h3_prime(self.exp3_a128)

    def run(self, seed):
        del seed
        outputs, parts = {}, {}
        for key, call, _ in self.calls:
            started = time.perf_counter()
            outputs[key.replace("_s.", ".")] = call()
            parts[key] = time.perf_counter() - started
        return Round(outputs=outputs,
                     units=sum(subsets for *_, subsets in self.calls),
                     parts=parts)

    def check(self, key, got):
        value = got[0] if isinstance(got, list) else got
        return value > 0


def _report(report):
    return [report.h3, list(report.argmin_subset)]


WORKLOADS = {
    w.name: w for w in (
        Experiment("exp1-minz", lambda: preset("exp1"),
                   ("shrvar", "sh-z", "shvar-z", "neyman-z", "sh", "shvar"),
                   budget=8000, repetitions=200),
        Experiment("exp1-confidence", lambda: preset("exp1"),
                   ("shrvar-c", "sh-c", "shvar-c"),
                   budget=64000, repetitions=40),
        Experiment("exp3-wide", lambda: preset("exp3", seed=7),
                   ("shrvar", "shrvar-ada"),
                   budget=120000, repetitions=150),
        Sweep("exp2-sweep"),
        Enumeration("h3-enum"),
    )
}

# Every algorithm any workload runs, for the per-algorithm cell metrics.
ALGORITHMS = ("shrvar", "sh-z", "shvar-z", "neyman-z", "sh", "shvar",
              "shrvar-c", "sh-c", "shvar-c", "shrvar-ada")
