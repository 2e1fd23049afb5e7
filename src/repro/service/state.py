"""Durable, transactional session state for the inference service.

:class:`DurableSessionStore` composes the two persistence substrates
into the service's commit protocol:

* the :class:`~repro.store.session.SessionManager` holds the *live*
  sessions (bounded by ``session_capacity``, LRU-spilled to
  ``<store_dir>/lru/`` and transparently reloaded);
* a per-session :class:`~repro.store.checkpoint.CheckpointManager`
  under ``<store_dir>/checkpoints/<session>/`` records one atomic,
  checksummed snapshot per *committed* mutation (create, observe,
  edit), numbered by edit count.

The commit protocol is write-ahead-of-ack: a mutation checkpoint is
fsynced to disk **before** the server acknowledges the request, so "the
client saw an ok" implies "the state survives SIGKILL".  Conversely a
request that fails — a translation fault, a deadline cancellation — is
rolled back by :meth:`InferenceSession.submit`'s transactional
semantics and never checkpointed, so failures cannot corrupt state
either.

On restart, :meth:`DurableSessionStore.recover` replays the newest
*valid* snapshot of every session: torn, zero-byte, or truncated files
from a crash mid-write are skipped by
:meth:`~repro.store.checkpoint.CheckpointManager.load_latest` in favor
of the previous snapshot (``checkpoint_keep >= 2`` guarantees one
exists), and the recovered collections are byte-identical to what was
acknowledged.
"""

from __future__ import annotations

import shutil
import threading
from pathlib import Path
from typing import Any, Dict, List, Optional

import numpy as np

from ..core import CorrespondenceTranslator
from ..core.config import InferenceConfig
from ..core.importance import importance_sampling
from ..errors import BadRequestError, SessionError
from ..graph import diff_correspondence
from ..lang import lang_model, parse_program
from ..observability import Hooks
from ..store import CheckpointManager, SessionManager
from ..store.session import InferenceSession
from .config import ServiceConfig

__all__ = ["DurableSessionStore", "value_histogram", "insert_observation"]


def value_histogram(collection: Any, top: int = 10) -> List[Dict[str, Any]]:
    """Weighted return-value distribution, largest mass first.

    The same summary ``repro translate`` prints, in JSON-able form.
    """
    values: Dict[Any, float] = {}
    weights = collection.normalized_weights()
    if hasattr(collection, "items"):
        particles: Any = collection.items
    else:
        # A session recovered from a columnar (``$ccoll``) snapshot holds
        # a ColumnarCollection until its next edit; its per-particle
        # views carry the same ``return_value``.
        particles = (collection.particle(i) for i in range(len(collection)))
    for trace, weight in zip(particles, weights):
        key = trace.return_value
        if isinstance(key, dict):
            key = tuple(sorted(key.items()))
        if isinstance(key, list):
            key = tuple(key)
        values[key] = values.get(key, 0.0) + float(weight)
    ranked = sorted(values.items(), key=lambda kv: (-kv[1], str(kv[0])))[:top]
    return [
        {"value": _jsonable(value), "probability": probability}
        for value, probability in ranked
    ]


def _jsonable(value: Any) -> Any:
    if isinstance(value, tuple):
        return [_jsonable(item) for item in value]
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    return value


def insert_observation(source: str, statement: str) -> str:
    """Insert an observation statement before the trailing ``return``.

    The ``observe`` op models incremental data arrival: the client ships
    one statement (``observe(gauss(x, 1) == 2.5);``) and the server
    splices it into the session's current program, producing the edited
    program the usual translation path then runs.  The splice point is
    the *last* ``return`` keyword so the observation is reachable; a
    program without a return gets the statement appended.
    """
    statement = statement.strip()
    if not statement:
        raise BadRequestError("observe needs a non-empty statement")
    if not statement.endswith(";"):
        statement += ";"
    index = source.rfind("return")
    if index < 0:
        return f"{source.rstrip()}\n{statement}\n"
    return f"{source[:index].rstrip()}\n{statement}\n{source[index:]}"


class DurableSessionStore:
    """Sessions + program metadata + the write-ahead commit protocol.

    All mutating methods are safe to call from multiple shard worker
    threads (for different sessions) concurrently; per-session ordering
    is the server's job (shard affinity) and per-session integrity is
    the session lock's.
    """

    def __init__(self, config: ServiceConfig):
        self.config = config
        root = None if config.store_dir is None else Path(config.store_dir)
        self.root = root
        lru_dir = None if root is None else root / "lru"
        self._session_config = InferenceConfig(resample="adaptive")
        self.manager = SessionManager(
            lru_dir,
            capacity=config.session_capacity,
            config=self._session_config,
        )
        #: session_id -> {"tenant", "program", "env"}; tiny, always live.
        self._meta: Dict[str, Dict[str, Any]] = {}
        self._lock = threading.RLock()

    # -- helpers ---------------------------------------------------------------

    def _checkpoints_root(self) -> Optional[Path]:
        return None if self.root is None else self.root / "checkpoints"

    def _checkpoints(self, session_id: str) -> Optional[CheckpointManager]:
        root = self._checkpoints_root()
        if root is None:
            return None
        return CheckpointManager(
            root / session_id, keep=self.config.checkpoint_keep
        )

    def _parse(self, source: str, what: str):
        try:
            return parse_program(source)
        except Exception as error:
            raise BadRequestError(f"cannot parse {what}: {error}") from error

    def meta(self, session_id: str) -> Dict[str, Any]:
        with self._lock:
            try:
                return dict(self._meta[session_id])
            except KeyError:
                raise SessionError(f"unknown session {session_id!r}") from None

    def register_meta(
        self,
        session_id: str,
        tenant: str,
        *,
        program: str = "",
        env: Optional[Dict[str, Any]] = None,
    ) -> None:
        """Record a session's metadata without holding its live state.

        The router process in multi-process mode tracks only metadata —
        tenant ownership for admission control and the session listing —
        while the session itself lives in a shard process.
        """
        with self._lock:
            self._meta[session_id] = {
                "tenant": tenant,
                "program": program,
                "env": dict(env or {}),
            }

    def forget_meta(self, session_id: str) -> None:
        with self._lock:
            self._meta.pop(session_id, None)

    def owns(self, tenant: str, session_id: str) -> None:
        """Tenant isolation: touching another tenant's session is poison."""
        owner = self.meta(session_id)["tenant"]
        if owner != tenant:
            raise BadRequestError(
                f"session {session_id!r} belongs to another tenant"
            )

    def session_ids(self) -> List[str]:
        with self._lock:
            return sorted(self._meta)

    def sessions_of(self, tenant: str) -> List[str]:
        with self._lock:
            return sorted(
                sid for sid, meta in self._meta.items() if meta["tenant"] == tenant
            )

    def disk_bytes(self, session_id: str) -> int:
        """Durable footprint of one session (its checkpoint files)."""
        root = self._checkpoints_root()
        if root is None:
            return 0
        directory = root / session_id
        if not directory.is_dir():
            return 0
        return sum(p.stat().st_size for p in directory.iterdir() if p.is_file())

    # -- commit protocol -------------------------------------------------------

    def _commit(self, session: InferenceSession, meta: Dict[str, Any]) -> None:
        """Write-ahead snapshot: fsynced to disk before any ack."""
        checkpoints = self._checkpoints(session.session_id)
        if checkpoints is None:
            return
        snapshot = session.snapshot()
        checkpoints.save(
            session.num_edits,
            snapshot["collection"],
            rng=snapshot["rng"],
            extra={
                "history": snapshot["history"],
                "tenant": meta["tenant"],
                "program": meta["program"],
                "env": meta["env"],
            },
        )

    def create_session(
        self,
        tenant: str,
        session_id: str,
        source: str,
        *,
        env: Optional[Dict[str, Any]] = None,
        num_particles: Optional[int] = None,
        seed: Optional[int] = None,
    ) -> Dict[str, Any]:
        checkpoints = self._checkpoints(session_id)
        if checkpoints is not None and checkpoints.latest_step() is not None:
            # Guard against silently shadowing durable history: a lazy-
            # recovering deployment may not have this session live, but
            # re-creating over existing snapshots would interleave new
            # step-0 state with old step-N files and corrupt recovery.
            raise SessionError(
                f"session {session_id!r} already exists in the durable store"
            )
        program = self._parse(source, "program")
        env = dict(env or {})
        particles = int(num_particles or self.config.num_particles)
        if particles < 1:
            raise BadRequestError(f"num_particles must be >= 1, got {particles}")
        model = lang_model(program, env=env, name="e0")
        rng = np.random.default_rng(seed)
        collection = importance_sampling(model, rng, particles).resample(rng)
        session = self.manager.create(session_id, collection, rng=rng)
        meta = {"tenant": tenant, "program": source, "env": env}
        with self._lock:
            self._meta[session_id] = meta
        self._commit(session, meta)
        return {
            "session": session_id,
            "num_particles": len(collection),
            "ess": collection.effective_sample_size(),
            "num_edits": 0,
        }

    def apply_edit(
        self,
        session_id: str,
        new_source: str,
        *,
        hooks: Optional[Hooks] = None,
    ) -> Dict[str, Any]:
        """Translate the session's collection across a program edit.

        Parses and diffs the programs *before* touching the session, so
        a poison edit is rejected without burning worker time; commits
        the checkpoint before returning, so a returned summary is a
        durable promise.
        """
        meta = self.meta(session_id)
        old_program = self._parse(meta["program"], "current program")
        new_program = self._parse(new_source, "edited program")
        session = self.manager.get(session_id)
        edit_index = session.num_edits
        source_model = lang_model(
            old_program, env=meta["env"], name=f"e{edit_index}"
        )
        target_model = lang_model(
            new_program, env=meta["env"], name=f"e{edit_index + 1}"
        )
        correspondence = diff_correspondence(old_program, new_program)
        translator = CorrespondenceTranslator(
            source_model, target_model, correspondence
        )
        step = session.submit(translator, hooks=hooks)
        meta["program"] = new_source
        with self._lock:
            self._meta[session_id] = meta
        self._commit(session, meta)
        stats = step.stats
        return {
            "session": session_id,
            "num_edits": session.num_edits,
            "num_particles": stats.num_traces,
            "ess": stats.ess_after,
            "resampled": stats.resampled,
            "faults": stats.total_faults,
        }

    def apply_observation(
        self,
        session_id: str,
        statement: str,
        *,
        hooks: Optional[Hooks] = None,
    ) -> Dict[str, Any]:
        meta = self.meta(session_id)
        new_source = insert_observation(meta["program"], statement)
        return self.apply_edit(session_id, new_source, hooks=hooks)

    # -- reads -----------------------------------------------------------------

    def posterior(self, session_id: str, *, top: int = 10) -> Dict[str, Any]:
        session = self.manager.get(session_id)
        collection = session.collection
        return {
            "session": session_id,
            "num_edits": session.num_edits,
            "num_particles": len(collection),
            "ess": collection.effective_sample_size(),
            "values": value_histogram(collection, top),
            "degraded": False,
        }

    def posterior_degraded(
        self, session_id: str, *, top: int = 10
    ) -> Dict[str, Any]:
        """Posterior from the last commit snapshot, never the live worker.

        The degraded rung of the ladder: reads only checkpoint files, so
        it is safe from any thread while the shard worker is wedged on a
        slow translation.
        """
        checkpoints = self._checkpoints(session_id)
        if checkpoints is None:
            raise SessionError(
                f"no durable snapshot for session {session_id!r} "
                "(service is running without store_dir)"
            )
        checkpoint = checkpoints.load_latest()
        if checkpoint is None:
            raise SessionError(
                f"no usable snapshot for session {session_id!r}"
            )
        collection = checkpoint.collection
        return {
            "session": session_id,
            "num_edits": checkpoint.step,
            "num_particles": len(collection),
            "ess": collection.effective_sample_size(),
            "values": value_histogram(collection, top),
            "degraded": True,
        }

    # -- lifecycle -------------------------------------------------------------

    def close_session(self, session_id: str) -> Dict[str, Any]:
        """End a session and delete its durable state.

        Close is the one *destructive* op — recovery must not resurrect
        a session its owner ended — so the checkpoint directory and any
        LRU spill file go with it.
        """
        meta = self.meta(session_id)  # raises for unknown ids
        num_edits = 0
        try:
            num_edits = self.manager.get(session_id).num_edits
        except SessionError:
            pass  # live copy already gone; disk cleanup below still applies
        self.manager.close(session_id, persist=False)
        with self._lock:
            self._meta.pop(session_id, None)
        root = self._checkpoints_root()
        if root is not None:
            shutil.rmtree(root / session_id, ignore_errors=True)
        lru_path = self.manager._path_for(session_id)
        if lru_path is not None and lru_path.exists():
            lru_path.unlink()
        return {"session": session_id, "num_edits": num_edits, "tenant": meta["tenant"]}

    def recover_session(self, session_id: str) -> bool:
        """Replay one session's newest valid snapshot into the live set.

        The lazy single-session flavor of :meth:`recover`: a shard
        process that inherits a session on failover (or after a
        placement move) pulls exactly that session's state from the
        shared store instead of replaying everything.  Returns False
        when the session has no usable snapshot.
        """
        checkpoints = self._checkpoints(session_id)
        if checkpoints is None:
            return False
        checkpoint = checkpoints.load_latest()
        if checkpoint is None:
            return False
        extra = checkpoint.extra
        session = InferenceSession(
            session_id,
            checkpoint.collection,
            checkpoint.rng,
            config=self._session_config,
            history=extra.get("history") or [],
        )
        # Refresh semantics: a stale live copy (a warm replica being
        # re-pulled after a newer commit) is dropped, never merged.
        self.manager.close(session_id, persist=False)
        self.manager.adopt(session)
        with self._lock:
            self._meta[session_id] = {
                "tenant": extra.get("tenant", ""),
                "program": extra.get("program", ""),
                "env": extra.get("env") or {},
            }
        return True

    def release_session(self, session_id: str) -> bool:
        """Drop the live copy of a session; durable state is untouched.

        The inverse of :meth:`recover_session`, used when placement
        moves a session to another shard process: the old owner releases
        its (now stale-to-be) live copy so the next owner's lazy
        recovery is the only reader.  Returns False for ids this store
        never held.
        """
        with self._lock:
            known = session_id in self._meta
            self._meta.pop(session_id, None)
        self.manager.close(session_id, persist=False)
        lru_path = self.manager._path_for(session_id)
        if lru_path is not None and lru_path.exists():
            lru_path.unlink()
        return known

    def scan_meta(self) -> List[str]:
        """Load every session's *metadata* without adopting live state.

        The router-process startup path: it needs tenant ownership and
        session listings for admission control, but the sessions
        themselves live in the shard processes (recovered lazily there).
        Reads only the newest valid snapshot's ``extra`` block.
        """
        root = self._checkpoints_root()
        if root is None or not root.is_dir():
            return []
        scanned: List[str] = []
        for directory in sorted(p for p in root.iterdir() if p.is_dir()):
            session_id = directory.name
            checkpoints = self._checkpoints(session_id)
            checkpoint = checkpoints.load_latest()
            if checkpoint is None:
                continue
            extra = checkpoint.extra
            with self._lock:
                self._meta[session_id] = {
                    "tenant": extra.get("tenant", ""),
                    "program": extra.get("program", ""),
                    "env": extra.get("env") or {},
                }
            scanned.append(session_id)
        return scanned

    def recover(self) -> List[str]:
        """Replay every session's newest valid snapshot (crash recovery).

        Torn/zero-byte/truncated snapshots are skipped in favor of the
        previous one; a session directory with *no* valid snapshot is
        reported but not fatal — the service starts without it rather
        than refusing to start at all.
        """
        root = self._checkpoints_root()
        if root is None or not root.is_dir():
            return []
        recovered: List[str] = []
        for directory in sorted(p for p in root.iterdir() if p.is_dir()):
            if self.recover_session(directory.name):
                recovered.append(directory.name)
        return recovered
