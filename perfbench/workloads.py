"""The benchmark's workloads: learn-null, learn-file and eval.

Every workload is a closed loop with one client: one op in flight, ops
in ``SUBJECT_NAMES`` order, in this process, on the serial backend with
``jobs=1`` and ``default_subject_config``. One op is one subject's
learn, resume or metric derivation, and every op's deterministic output
is checked against ``benchmarks/baselines/BENCH_suite_all.json``.

Each workload's docstring says why it was chosen (its ``why`` line in
``BENCHMARK.json`` is the short form), and ``exercises`` / ``bypasses``
name the layers it should and should not call. The traced run checks
those predictions, so a refactor that moves a name out from under its
wrapper fails a check instead of quietly moving time into an op's
unattributed remainder.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import hashlib
import json
import os
import random
import shutil
import tempfile
from typing import Any, Callable, Dict, Iterator, List, Optional

from repro.artifacts.store import FileCheckpointStore
from repro.artifacts.suite import SuiteParams
from repro.core.pipeline import LearningPipeline
from repro.evaluation.harness import (
    default_subject_config,
    derive_subject_metrics,
    learn_subject,
)
from repro.programs import SUBJECT_NAMES, get_subject

from layers import CountingNullStore, LayerProbe

BASELINE = os.path.join("benchmarks", "baselines", "BENCH_suite_all.json")

#: What a learn op must reproduce from the baseline.
LEARN_KEYS = (
    "grammar_digest",
    "grammar_productions",
    "oracle_queries",
    "unique_queries",
    "seeds_used",
    "seeds_skipped",
)
#: A resumed run promises the grammar and the accumulated query count,
#: not equal ``unique_queries``: the cache does not survive a restart.
RESUME_KEYS = ("grammar_digest", "oracle_queries")
#: Eval fields that do not depend on ``SuiteParams.rng_seed``.
SEED_FREE_EVAL_KEYS = LEARN_KEYS + ("recall",)


@dataclasses.dataclass
class Op:
    """One measured call and the outputs it must reproduce."""

    kind: str  # "learn" | "resume" | "eval"
    subject: str
    run: Callable[[Optional[LayerProbe]], Any]
    #: Deterministic outputs of ``run``'s result, computed untimed.
    outputs: Callable[[Any], Dict[str, Any]]
    expected: Dict[str, Any]

    @property
    def label(self) -> str:
        return "{}:{}".format(self.kind, self.subject)

    @property
    def root(self) -> str:
        """The root layer the op's unattributed time is reported under."""
        return "eval" if self.kind == "eval" else "pipeline"


def _digest(grammar) -> str:
    return hashlib.sha256(
        str(grammar).encode("utf-8", "backslashreplace")
    ).hexdigest()


def _artifact_outputs(artifact, issued_queries=None, issued_unique=None):
    """A learned artifact's outputs; ``issued_*`` count this process's
    share (all of it, unless the run was resumed)."""
    grammar = artifact.require_grammar()
    tiers = artifact.execution.get("matcher_tiers") or {}
    return {
        "grammar_digest": _digest(grammar),
        "grammar_productions": len(grammar.productions),
        "oracle_queries": artifact.oracle_queries,
        "unique_queries": artifact.unique_queries,
        "seeds_used": len(artifact.seeds_used()),
        "seeds_skipped": len(artifact.seeds_skipped()),
        "issued_queries": (
            artifact.oracle_queries if issued_queries is None
            else issued_queries
        ),
        "issued_unique": (
            artifact.unique_queries if issued_unique is None
            else issued_unique
        ),
        "dense_matches": tiers.get("dense_matches", 0),
        "tier_matches": sum(
            tiers.get(name, 0)
            for name in ("dense_matches", "nfa_matches", "fallback_matches")
        ),
    }


def _learn(subject, store_for, probe: Optional[LayerProbe]):
    """``LearningPipeline.run`` as ``repro learn`` runs it."""
    accepts = subject.accepts
    store = store_for(probe)
    if probe is not None:
        accepts = probe.timed_accepts(accepts)
    pipeline = LearningPipeline(
        accepts, config=default_subject_config(subject), store=store
    )
    return pipeline.run(subject.seeds)


class Workload:
    """One set of ops, prepared by :meth:`setup` and run pass by pass."""

    name = ""
    #: Layers predicted to be called (calls > 0 in the traced run).
    exercises: tuple = ()
    #: Layers predicted not to be called (0 calls in the traced run).
    bypasses: tuple = ()
    #: Op kind -> the subjects it runs on, in op order.
    plan: Dict[str, List[str]] = {}

    def __init__(self, seed: int, root: str, workdir: str):
        self.seed = seed
        self.root = root
        self.workdir = workdir
        self.baseline: Dict[str, Dict[str, Any]] = {}

    def setup(self) -> None:
        """Prepare the inputs; the benchmark times this as ``setup_s``."""
        with open(os.path.join(self.root, BASELINE), encoding="utf-8") as fh:
            self.baseline = json.load(fh)["metrics"]

    def expected(self, subject: str, keys) -> Dict[str, Any]:
        return {key: self.baseline[subject][key] for key in keys}

    @contextlib.contextmanager
    def pass_ops(self) -> Iterator[List[Op]]:
        """The ops of one pass, valid inside the ``with`` block."""
        raise NotImplementedError


def _warm_up(name: str) -> None:
    """Learn one subject with the null store, so measured ops pay less
    of the first-call costs that later ops do not. It also makes the
    set-up long enough (~1 s) to time as steadily as the ops."""
    subject = get_subject(name)
    LearningPipeline(
        subject.accepts, config=default_subject_config(subject)
    ).run(subject.seeds)


def _ordered(names) -> List[str]:
    return [name for name in SUBJECT_NAMES if name in names]


class LearnNull(Workload):
    """``LearningPipeline.run`` with the default null store: the path of
    ``repro eval`` and ``learn_grammar``. Per-checkpoint digest
    accounting (~40% of these learns) and the subject parsers dominate;
    nothing is persisted and nothing is parsed with Earley."""

    name = "learn-null"
    # A pass takes ~5 s on a 2-core x86_64 box, so a run holds about six.
    # ruby (~5 s alone), python (~10 s) and javascript (~40 s) are left
    # out for that reason; flex, bison and xml already spend 36-44% of
    # their learn time in the same quadratic digest accounting.
    plan = {"learn": _ordered(("sed", "flex", "grep", "bison", "xml"))}
    exercises = (
        "programs", "engine", "learner.phase1", "learner.phase2",
        "learner.translate", "pipeline.digest", "pipeline",
    )
    bypasses = (
        "store.save", "store.load", "earley.recognize", "earley.parse",
        "sampler", "fuzzer", "coverage", "eval",
    )

    def setup(self) -> None:
        super().setup()
        self._subjects = {name: get_subject(name) for name in self.plan["learn"]}
        # flex's first learn in a process runs ~35% slower than later ones.
        _warm_up("flex")

    @staticmethod
    def _null_store(probe):
        return None if probe is None else CountingNullStore(probe)

    @contextlib.contextmanager
    def pass_ops(self) -> Iterator[List[Op]]:
        yield [
            Op(
                kind="learn",
                subject=name,
                run=functools.partial(
                    _learn, self._subjects[name], self._null_store
                ),
                outputs=_artifact_outputs,
                expected=self.expected(name, LEARN_KEYS),
            )
            for name in self.plan["learn"]
        ]


class _KillPointStore(FileCheckpointStore):
    """A file store that keeps a copy of the checkpoint a run killed at
    the kill point leaves behind: the first save after phase 2 has
    committed ``fraction`` of its merge pairs.

    Phase 2 makes 310 of xml's 318 saves, so a fraction of 0.5 lands
    within a few saves of the middle one. The point is defined by
    learning progress rather than by a save count, so it stays put if
    the checkpoint cadence changes.
    """

    def __init__(self, path: str, fraction: float, copy_to: str):
        super().__init__(path)
        self.fraction = fraction
        self.copy_to = copy_to
        self.captured = False

    def save(self, artifact) -> None:
        super().save(artifact)
        progress = artifact.phase2_progress or {}
        pairs = progress.get("pairs") or 0
        if (
            not self.captured
            and artifact.stage == "translate"
            and pairs
            and len(progress.get("decisions", ())) >= self.fraction * pairs
        ):
            shutil.copyfile(self.path, self.copy_to)
            self.captured = True


class LearnFile(Workload):
    """The ``repro learn --out`` / ``repro resume`` path. Learning
    through a ``FileCheckpointStore`` is dominated by its saves, which
    ``learn-null`` never makes; resuming xml adds the read side (load,
    integrity check, decision replay), so a change that makes saves
    cheap by making loads dear shows on ``resume_s``."""

    name = "learn-file"
    # A pass takes ~8 s on a 2-core x86_64 box. flex and bison (~11 s
    # each through the file store) are left out to keep several passes
    # in a run; xml already spends most of its file-backed learn in saves.
    plan = {"learn": _ordered(("sed", "grep", "xml")), "resume": ["xml"]}
    exercises = (
        "programs", "engine", "learner.phase1", "learner.phase2",
        "learner.translate", "learner.replay", "pipeline.digest",
        "store.save", "store.load", "pipeline",
    )
    bypasses = (
        "earley.recognize", "earley.parse", "sampler", "fuzzer",
        "coverage", "eval",
    )

    def setup(self) -> None:
        super().setup()
        names = set(self.plan["learn"]) | set(self.plan["resume"])
        self._subjects = {name: get_subject(name) for name in names}
        # Seed 0 resumes from halfway through phase 2; other seeds move
        # the kill point a little, so the resumed work differs slightly.
        self.kill_fraction = (
            0.5 if self.seed == 0
            else random.Random(self.seed).uniform(0.45, 0.55)
        )
        _warm_up("xml")

    @contextlib.contextmanager
    def pass_ops(self) -> Iterator[List[Op]]:
        with tempfile.TemporaryDirectory(dir=self.workdir) as tmp:
            ops = []
            for name in self.plan["learn"]:
                ops.append(Op(
                    kind="learn",
                    subject=name,
                    run=functools.partial(
                        _learn,
                        self._subjects[name],
                        functools.partial(self._store, tmp, name),
                    ),
                    outputs=_artifact_outputs,
                    expected=self.expected(name, LEARN_KEYS),
                ))
            for name in self.plan["resume"]:
                ops.append(Op(
                    kind="resume",
                    subject=name,
                    run=functools.partial(
                        self._resume, self._subjects[name],
                        self._kill_copy(tmp, name),
                    ),
                    outputs=self._resume_outputs,
                    expected=self.expected(name, RESUME_KEYS),
                ))
            yield ops

    @staticmethod
    def _kill_copy(tmp: str, name: str) -> str:
        return os.path.join(tmp, name + "-killed.json")

    def _store(self, tmp: str, name: str, _probe) -> FileCheckpointStore:
        path = os.path.join(tmp, name + ".json")
        if name in self.plan["resume"]:
            return _KillPointStore(
                path, self.kill_fraction, self._kill_copy(tmp, name)
            )
        return FileCheckpointStore(path)

    @staticmethod
    def _resume(subject, path: str, probe: Optional[LayerProbe]):
        """``FileCheckpointStore.load`` plus ``LearningPipeline.resume``,
        as ``repro resume`` runs them."""
        store = FileCheckpointStore(path)
        artifact = store.load()
        if artifact is None:
            raise FileNotFoundError("no kill-point checkpoint at " + path)
        loaded = (artifact.oracle_queries, artifact.unique_queries)
        accepts = subject.accepts
        if probe is not None:
            accepts = probe.timed_accepts(accepts)
        pipeline = LearningPipeline(
            accepts, config=artifact.config, store=store
        )
        return loaded, pipeline.resume(artifact)

    @staticmethod
    def _resume_outputs(result) -> Dict[str, Any]:
        (queries, unique), artifact = result
        return _artifact_outputs(
            artifact,
            issued_queries=artifact.oracle_queries - queries,
            issued_unique=artifact.unique_queries - unique,
        )


class Eval(Workload):
    """``derive_subject_metrics`` with the default ``SuiteParams`` on
    artifacts learned in set-up. Earley ``parse`` and ``recognize`` do
    about half of it, then fuzzing, sampling and coverage tracing; none
    of these layers runs in the learn workloads, and nothing is learned
    here."""

    name = "eval"
    # A pass takes ~5 s on a 2-core x86_64 box. xml is left out: its one
    # derivation takes 16-29 s here, more than a run can hold several
    # times over; flex and bison carry the Earley share instead.
    plan = {"eval": _ordered(("sed", "flex", "grep", "bison"))}
    exercises = (
        "programs", "earley.recognize", "earley.parse", "sampler",
        "fuzzer", "coverage", "eval",
    )
    bypasses = (
        "engine", "learner.phase1", "learner.phase2", "learner.translate",
        "learner.replay", "pipeline.digest", "store.save", "store.load",
        "pipeline",
    )

    def setup(self) -> None:
        super().setup()
        self.params = SuiteParams(rng_seed=self.seed)
        self._artifacts = {
            name: learn_subject(get_subject(name))
            for name in self.plan["eval"]
        }

    @contextlib.contextmanager
    def pass_ops(self) -> Iterator[List[Op]]:
        # Seed 0 is the baseline's parameters, so every field must
        # match; another seed gives Earley, the sampler, the fuzzer and
        # coverage fresh inputs, and only seed-free fields are checked.
        keys = (
            tuple(self.baseline[self.plan["eval"][0]]) if self.seed == 0
            else SEED_FREE_EVAL_KEYS
        )
        yield [
            Op(
                kind="eval",
                subject=name,
                run=functools.partial(self._derive, name),
                outputs=lambda result: dataclasses.asdict(result[0]),
                expected=self.expected(name, keys),
            )
            for name in self.plan["eval"]
        ]

    def _derive(self, name: str, _probe):
        return derive_subject_metrics(name, self._artifacts[name], self.params)


WORKLOADS = {cls.name: cls for cls in (LearnNull, LearnFile, Eval)}
