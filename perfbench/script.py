"""The operation script one benchmark run executes, and its metrics.

A run builds its audit several times (``setup_s`` is the median) and keeps
one copy for reads and several, alike at the start, for writes. It runs one
untimed warm-up round and then timed read rounds of every read command until
the run's time is up. After each read command, the writes keep pace with the
clock: blocks of version bumps through ``AuditRepository.write_artifact``,
each block closed by one ``risk --ingest-tests``. Writes go to their own
copies because ingesting test results makes the risk chart stale, which would
change what the reads print. The write copies take the blocks in turn, one
stretch of the run each, so every stretch grows a trail from the same start:
the cost that grows with the trail is met all through the run, not only at
its end. Every command goes through ``auditflow.cli.main`` in this process and loads
the repository afresh, as a real call does.
"""

from __future__ import annotations

import copy
import gc
import io
import random
import resource
import shutil
import statistics
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from auditflow import cli
from auditflow.repository import AuditRepository

import audits
import expect

READS = (
    ("validate", ("validate",)),
    ("status", ("status",)),
    ("gate", ("gate", "reflection")),
    ("risk", ("risk",)),
    ("trace", ("trace",)),
    ("report", ("report",)),
)
SETUP_BUILDS = 3
MIN_ROUNDS = 3
BUMPS_PER_BLOCK = 30  # version bumps per write block
WRITE_BLOCKS = 10  # write blocks; each ends with one ``risk --ingest-tests``
WRITE_COPIES = 5  # write copies; each takes WRITE_BLOCKS // WRITE_COPIES blocks in a row
P90_WINDOW = 31  # writes, in write order, in the running median ``write_p90_ms`` takes its p90 of

END_TO_END_UNITS = {
    "setup_s": "s",
    **{f"{name}_ms": "ms" for name, _ in READS},
    "ingest_ms": "ms",
    "write_ms": "ms",
    "write_p90_ms": "ms",
    "peak_rss_mb": "MB",
}


class Script:
    def __init__(self, workload: str, seed: int, shape: audits.Shape, workdir: Path, tracer=None):
        self.workload = workload
        self.seed = seed
        self.shape = shape
        self.workdir = workdir
        self.tracer = tracer
        self.model: audits.Model | None = None  # what the read copy holds
        self.repo: Path | None = None
        self.write_models: list[audits.Model] = []  # what each write copy holds
        self.write_repos: list[Path] = []
        self._writer: AuditRepository | None = None
        self._write_rng = random.Random(f"{workload}/{seed}/writes")
        self.setup_times: list[float] = []
        self.samples: dict[str, list[float]] = {name: [] for name in (*(n for n, _ in READS), "ingest", "write")}
        self.ops: list[dict] = []
        self.attempted = 0
        self.failed = 0
        self.mismatches = 0
        self._graph_hash: str | None = None
        self._report: bytes | None = None

    # -- set-up ---------------------------------------------------------------

    def setup(self) -> None:
        self.model = audits.baseline(self.workdir / "baseline")
        writes = audits.grow(self.model, random.Random(f"{self.workload}/{self.seed}"), self.shape)
        shutil.rmtree(self.workdir / "baseline")
        builds = []
        for k in range(SETUP_BUILDS):
            builds.append(self.workdir / f"audit-{k}")
            gc.collect()
            start = time.perf_counter()
            audits.build(builds[-1], writes)
            self.setup_times.append(time.perf_counter() - start)
        for path in builds[:-2]:
            shutil.rmtree(path)
        self.repo = builds[-2]
        self.write_repos = [builds[-1]]
        for k in range(1, WRITE_COPIES):
            self.write_repos.append(shutil.copytree(builds[-1], self.workdir / f"write-{k}"))
        self.write_models = [copy.deepcopy(self.model) for _ in self.write_repos]

    # -- operations -------------------------------------------------------------

    def command(self, *argv: str, repo: Path | None = None) -> tuple[int, str]:
        """Run one auditflow command in process on ``repo`` (the read copy by default).

        Returns the exit code and stdout.
        """
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(["--repo", str(repo or self.repo), *argv])
        if code:
            print(f"auditflow {' '.join(argv)} exited {code}: {err.getvalue().strip()}", file=sys.stderr)
        return code, out.getvalue()

    def _op(self, name: str, phase: str, group: int, call, check) -> float | None:
        """Time ``call``, then ``check`` its result; None if it raised or failed its check."""
        op_id = len(self.ops)
        self.ops.append({"id": op_id, "name": name, "phase": phase, "group": group})
        self.attempted += 1
        gc.collect()
        if self.tracer is not None:
            self.tracer.op = op_id
        try:
            start = time.perf_counter()
            result = call()
            elapsed = time.perf_counter() - start
        except Exception as exc:  # a crash of the program is a failed operation, not a benchmark crash
            self.failed += 1
            print(f"FAILED {name} (op {op_id}): {type(exc).__name__}: {exc}", file=sys.stderr)
            return None
        finally:
            if self.tracer is not None:
                self.tracer.op = -1
        try:
            check(result)
        except Exception as exc:  # any surprise in the output is a wrong output
            self.failed += 1
            self.mismatches += 1
            print(f"WRONG {name} (op {op_id}): {type(exc).__name__}: {exc}", file=sys.stderr)
            return None
        return elapsed

    def _check_read(self, name: str, result: tuple[int, str]) -> None:
        code, out = result
        model, repo = self.model, self.repo
        if name == "validate":
            expect.check_validate(model, code, out)
        elif name == "status":
            expect.check_status(model, code, out)
        elif name == "gate":
            expect.check_gate(code, out)
        elif name == "risk":
            expect.check_risk(model, code, out)
        elif name == "trace":
            digest = expect.check_trace(model, code, out, repo)
            self._graph_hash = self._graph_hash or digest
            expect.require(digest == self._graph_hash, "adhf.graph hash changed between rounds")
        elif name == "report":
            if code == 0 and not model.summary_written:
                model.summary_written = True  # the first report writes audit-summary v1, final
                model.trail_len += 2
            data = expect.check_report(model, code, out, repo)
            self._report = self._report or data
            expect.require(data == self._report, "audit_report.txt changed between rounds")

    def read_round(self, phase: str, group: int, after=lambda: None) -> None:
        """One read command after another; ``after`` runs after each of them."""
        for name, argv in READS:
            elapsed = self._op(
                name, phase, group,
                lambda: self.command(*argv),
                lambda result: self._check_read(name, result),
            )
            if elapsed is not None and phase == "read":
                self.samples[name].append(elapsed)
            after()

    def write(self, step: int) -> None:
        """Version bump number ``step``; the last bump of each block is followed by one ingest."""
        block, position = divmod(step, BUMPS_PER_BLOCK)
        k = block * WRITE_COPIES // WRITE_BLOCKS
        model, path = self.write_models[k], self.write_repos[k]
        if position == 0:
            self._writer = AuditRepository.load(path)
        rng = self._write_rng
        target = audits.BUMP_ORDER[step % len(audits.BUMP_ORDER)]
        doc, events = audits.bump(model, target, rng, audits.NOW)
        offset = (path / "trail.log").stat().st_size
        elapsed = self._op(
            "write", "write", block,
            lambda: self._writer.write_artifact(doc),
            lambda _: expect.check_write(model, doc.id, events, path, offset),
        )
        if elapsed is not None:
            self.samples["write"].append(elapsed)
        if position == BUMPS_PER_BLOCK - 1:
            report_id = model.ingest_report
            elapsed = self._op(
                "ingest", "write", block,
                lambda: self.command("risk", "--ingest-tests", report_id, repo=path),
                lambda result: expect.check_ingest(model, report_id, *result, path),
            )
            if elapsed is not None:
                self.samples["ingest"].append(elapsed)

    def close(self) -> None:
        """A final ``trace`` on each write copy must accept its whole trail, which must match its model."""
        for k, (model, path) in enumerate(zip(self.write_models, self.write_repos)):
            def check(result, model=model, path=path):
                expect.check_trace(model, *result, path)
                expect.check_trail(model, path)

            self._op("close", "close", k, lambda path=path: self.command("trace", repo=path), check)

    # -- the run ------------------------------------------------------------------

    def run(self, seconds: float) -> None:
        self.setup()
        # Keep the generator's objects out of every later collection: a real
        # CLI process would not hold them.
        gc.collect()
        gc.freeze()
        if self.tracer is not None:
            self.tracer.install()
        try:
            self.read_round("warmup", 0)
            total = WRITE_BLOCKS * BUMPS_PER_BLOCK
            start = time.perf_counter()
            done = 0

            def catch_up(final: bool = False) -> None:
                # Writes keep pace with the clock, so they spread over the whole run.
                nonlocal done
                elapsed = time.perf_counter() - start
                due = total if final or elapsed >= seconds else int(total * elapsed / seconds)
                while done < due:
                    self.write(done)
                    done += 1

            rounds = 0
            while rounds < MIN_ROUNDS or time.perf_counter() - start < seconds:
                self.read_round("read", rounds, catch_up)
                rounds += 1
            catch_up(final=True)
            self.close()
        finally:
            if self.tracer is not None:
                self.tracer.uninstall()
            gc.unfreeze()

    def end_to_end(self) -> dict[str, float]:
        """Median of each operation's samples; a p90 of the writes as well.

        The p90 is taken over a running median of the writes in write order:
        it keeps the cost that grows with the trail over the run and drops
        single writes that a busy host slowed.
        """
        def ms(name):
            return statistics.median(self.samples[name]) * 1000

        values = {"setup_s": statistics.median(self.setup_times)}
        values.update({f"{name}_ms": ms(name) for name, _ in READS})
        values["ingest_ms"] = ms("ingest")
        values["write_ms"] = ms("write")
        values["write_p90_ms"] = statistics.quantiles(running_median(self.samples["write"], P90_WINDOW), n=10)[8] * 1000
        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        return values

    def per_layer(self) -> dict[str, float]:
        """Each layer's median read-round total plus its median write-block total."""
        def groups(phase):
            out: dict[int, list[int]] = {}
            for op in self.ops:
                if op["phase"] == phase:
                    out.setdefault(op["group"], []).append(op["id"])
            return list(out.values())

        reads = self.tracer.per_layer(groups("read"))
        writes = self.tracer.per_layer(groups("write"))
        return {metric: reads[metric] + writes[metric] for metric in reads}


def running_median(values: list[float], width: int) -> list[float]:
    """Each value replaced by the median of the ``width`` values centred on it (fewer at the ends)."""
    half = width // 2
    return [statistics.median(values[max(0, i - half):i + half + 1]) for i in range(len(values))]
