"""The simulation service: a protocol adapter over the Scheduler's ladder.

One :class:`SimulationService` sits between the listeners
(:mod:`repro.serve.server`) and one :class:`~repro.sched.Scheduler` over
the content-addressed :class:`~repro.cache.RunCache`.  A query is a list
of configs — a run has one, a replicated run ``R`` derived-seed configs,
a sweep its own list — and resolves cheapest first:

1. **Signature memo** — the canonicalized wire config of an
   already-answered run maps straight to its response body: no
   ``RunConfig`` construction, no hashing.  This is the 10k+/s warm path.
2. **Scheduler probe** — :meth:`Scheduler.probe` walks the scheduler's
   one intake ladder for each config (memo, in-flight, journal replay,
   cache replay) without a worker.  When every record is terminal the
   answer is built from the records.
3. **Coalesced wait** — a run whose every config is known but some are
   still in flight awaits those records through the scheduler's
   completion hooks: no admission slot, no second task.
4. **Admitted job** — otherwise the query takes one of ``max_inflight``
   admission slots and :meth:`Scheduler.submit` registers its batch on
   the event loop, so an identical query arriving next coalesces onto it;
   :meth:`Scheduler.collect` then runs on a worker thread.  When every
   slot is busy the query is *rejected* with a structured ``busy`` error
   (HTTP 429) instead of queueing unboundedly — a cold-miss storm
   degrades into fast failures while warm traffic keeps flowing.

The service itself keeps only what is protocol: the signature memo, body
encoding, admission slots, progress streaming and drain.  Robustness
contract: per-request timeouts detach the requester (the simulation
itself keeps running and lands in cache/journal for the next asker),
``begin_drain`` flips the service into refuse-new/finish-in-flight mode
(SIGTERM), and simulator, scheduler and journal failures — including
:class:`~repro.sched.PoisonedConfigError` — come back as structured error
payloads on a healthy connection.
"""

from __future__ import annotations

import asyncio
import logging
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Awaitable, Callable, Dict, List, Optional, Set, Tuple

from repro.cache import config_key
from repro.core.config import RunConfig, RunResult
from repro.sched import Batch, PoisonedConfigError, Scheduler, SchedulerError
from repro.sched.task import TaskRecord
from repro.serve import protocol
from repro.serve.metrics import ServiceMetrics
from repro.serve.protocol import ProtocolError, Request

__all__ = ["SimulationService"]

log = logging.getLogger("repro.serve")

#: Emit callback type: writes one progress document to the client.
Emitter = Callable[[Dict[str, Any]], Awaitable[None]]


def _signature(doc: Any) -> Any:
    """A hashable canonical form of one wire config (dict order free)."""
    if isinstance(doc, dict):
        return tuple(sorted((k, _signature(v)) for k, v in doc.items()))
    if isinstance(doc, (list, tuple)):
        return tuple(_signature(v) for v in doc)
    return doc


class SimulationService:
    """Query engine over one scheduler + run cache (asyncio side)."""

    def __init__(
        self,
        jobs: int = 1,
        cache_dir: Optional[str] = None,
        journal: Optional[str] = None,
        max_inflight: int = 8,
        default_timeout_s: Optional[float] = 300.0,
        scheduler: Optional[Scheduler] = None,
    ):
        if max_inflight < 1:
            raise ValueError(f"max_inflight must be >= 1, got {max_inflight}")
        self.sched = scheduler or Scheduler(
            jobs=jobs, cache_dir=cache_dir, journal=journal
        )
        self.max_inflight = int(max_inflight)
        self.default_timeout_s = default_timeout_s
        self.metrics = ServiceMetrics()
        #: request-signature -> result body of an answered run
        self._sig_memo: Dict[Any, Dict[str, Any]] = {}
        #: admission slots currently held by cold jobs
        self._cold_jobs = 0
        #: every live cold-job task, awaited by drain()
        self._jobs: Set["asyncio.Task"] = set()
        self._exec = ThreadPoolExecutor(
            max_workers=self.max_inflight,
            thread_name_prefix="repro-serve",
        )
        self._draining = False
        self._closed = False
        #: content key -> [(loop, queue)]: listeners fed by the scheduler
        #: completion hook (foreign threads), guarded by a plain lock
        #: because the hook never re-enters the service.
        self._listeners: Dict[str, List[Tuple[Any, "asyncio.Queue"]]] = {}
        self._hook_lock = threading.Lock()
        self.sched.add_completion_hook(self._on_task_done)

    # -- lifecycle ------------------------------------------------------------
    @property
    def draining(self) -> bool:
        return self._draining

    def begin_drain(self) -> None:
        """Refuse new queries; in-flight jobs keep running."""
        self._draining = True

    async def drain(self, grace_s: float = 30.0) -> bool:
        """Wait for in-flight jobs, then flush and close; True when clean.

        Jobs still running after ``grace_s`` are abandoned (their worker
        results land in the cache/journal whenever they do finish, but
        the service closes without them).
        """
        self.begin_drain()
        jobs = list(self._jobs)
        clean = True
        if jobs:
            done, pending = await asyncio.wait(jobs, timeout=grace_s)
            clean = not pending
        self.close()
        return clean

    def close(self) -> None:
        """Release the worker pool and journal (commits pending lines)."""
        if self._closed:
            return
        self._closed = True
        self._draining = True
        self.sched.remove_completion_hook(self._on_task_done)
        self._exec.shutdown(wait=False)
        self.sched.close()

    # -- progress hook bridge -------------------------------------------------
    def _on_task_done(self, rec: TaskRecord) -> None:
        """Scheduler completion hook (fires on worker/drainer threads)."""
        with self._hook_lock:
            entries = self._listeners.get(rec.key)
            if not entries:
                return
            targets = list(entries)
        event = (rec.key, rec.state.value)
        for loop, queue in targets:
            try:
                loop.call_soon_threadsafe(queue.put_nowait, event)
            except RuntimeError:
                pass  # loop already closed (drain race): drop the event

    def _listen(self, keys, loop, queue) -> None:
        with self._hook_lock:
            for key in keys:
                self._listeners.setdefault(key, []).append((loop, queue))

    def _unlisten(self, keys, queue) -> None:
        with self._hook_lock:
            for key in keys:
                entries = self._listeners.get(key)
                if not entries:
                    continue
                self._listeners[key] = [
                    e for e in entries if e[1] is not queue
                ]
                if not self._listeners[key]:
                    del self._listeners[key]

    # -- result bodies --------------------------------------------------------
    @staticmethod
    def _result_body(result: RunResult) -> Dict[str, Any]:
        body = protocol.result_to_dict(result)
        body["gflops"] = result.gflops
        body["seconds_per_step"] = result.seconds_per_step
        return body

    def _respond(
        self,
        req: Request,
        results: List[Any],
        source: str,
        sig: Any,
        warm: int = 0,
    ) -> Dict[str, Any]:
        """The response document for settled per-config results.

        A run raises its first failure (``handle`` maps it to a
        structured error); a replicated run reproduces
        :func:`repro.core.runner.run_replicated` bit-for-bit (replica 0's
        result, stats over every replica's ``elapsed_s``).  A sweep
        reports failures in-slot.
        """
        if req.verb == "run":
            for item in results:
                if isinstance(item, BaseException):
                    raise item
            body = self._result_body(results[0])
            if req.replicas > 1:
                from repro.perturb.stats import replication_stats

                body["stats"] = dict(
                    replication_stats([r.elapsed_s for r in results])
                )
                body["replicas"] = req.replicas
            self._sig_memo[sig] = body
            return protocol.ok_response(
                req.id, {"result": body, "source": source}
            )
        out: List[Dict[str, Any]] = []
        errors = 0
        for item in results:
            if isinstance(item, BaseException):
                errors += 1
                kind = (
                    "poisoned" if isinstance(item, PoisonedConfigError)
                    else "invalid-config"
                    if isinstance(item, (ValueError, KeyError))
                    else "failed"
                )
                out.append({"ok": False, "error": protocol.error_body(
                    kind, str(item))})
            else:
                out.append(self._result_body(item))
        doc: Dict[str, Any] = {
            "results": out,
            "total": len(results),
            "distinct": len({config_key(c) for c in req.configs}),
            "warm": warm,
        }
        if errors or source == "simulated":
            doc["errors"] = errors
        doc["source"] = source
        return protocol.ok_response(req.id, doc)

    # -- admission ------------------------------------------------------------
    def _admit(self) -> None:
        """Claim one cold-job admission slot or raise a structured error."""
        if self._draining:
            self.metrics.inc("rejected_draining")
            raise ProtocolError("service is draining", kind="draining")
        if self._cold_jobs >= self.max_inflight:
            self.metrics.inc("rejected_busy")
            raise ProtocolError(
                f"all {self.max_inflight} simulation slots are busy; "
                "retry later (warm queries are still served)",
                kind="busy",
            )
        self._cold_jobs += 1
        self.metrics.inc("admitted")
        self.metrics.gauge_add("inflight", 1)

    def _release(self) -> None:
        self._cold_jobs -= 1
        self.metrics.gauge_add("inflight", -1)

    def _spawn(self, batch: Batch) -> "asyncio.Task":
        """Collect an admitted, already submitted batch on a worker thread.

        The returned task owns the admission slot and is awaited by
        ``drain()``.  Requesters await it through ``asyncio.shield`` so a
        per-request timeout detaches the requester without cancelling
        the shared job.
        """
        loop = asyncio.get_running_loop()

        async def job() -> List[Any]:
            try:
                return await loop.run_in_executor(
                    self._exec, self.sched.collect, batch, True
                )
            finally:
                self._release()

        task = loop.create_task(job())
        self._jobs.add(task)
        task.add_done_callback(self._jobs.discard)
        return task

    # -- request handling -----------------------------------------------------
    async def handle(
        self, doc: Dict[str, Any], emit: Optional[Emitter] = None
    ) -> Dict[str, Any]:
        """Answer one decoded request document.

        ``emit`` (when given) receives progress documents for streamed
        sweep/replica jobs before the final response is returned.  Every
        failure mode — protocol, validation, simulation, journal I/O,
        poisoning, timeout, backpressure — returns a structured error
        response; nothing raises to the connection handler except
        transport errors from ``emit`` itself.
        """
        t0 = time.perf_counter()
        self.metrics.inc("requests")
        req_id = doc.get("id") if isinstance(doc, dict) else None
        warm = False
        try:
            response, warm = await self._dispatch(doc, emit)
        except ProtocolError as exc:
            self.metrics.inc("responses_error")
            if exc.kind == "protocol":
                self.metrics.inc("protocol_errors")
            return protocol.error_response(req_id, exc.kind, str(exc))
        except asyncio.TimeoutError:
            self.metrics.inc("timeouts")
            self.metrics.inc("responses_error")
            return protocol.error_response(
                req_id, "timeout", "request timed out; the simulation "
                "continues and will be served warm once finished"
            )
        except PoisonedConfigError as exc:
            self.metrics.inc("responses_error")
            return protocol.error_response(req_id, "poisoned", str(exc))
        except SchedulerError as exc:
            self.metrics.inc("responses_error")
            return protocol.error_response(req_id, "scheduler-error", str(exc))
        except ValueError as exc:
            self.metrics.inc("responses_error")
            return protocol.error_response(req_id, "invalid-config", str(exc))
        except ConnectionError:
            raise  # ``emit`` lost the client: the connection is gone
        except Exception as exc:
            log.exception("request %r failed", req_id)
            self.metrics.inc("responses_error")
            return protocol.error_response(req_id, "failed", str(exc))
        self.metrics.inc("responses_ok")
        self.metrics.observe_latency(time.perf_counter() - t0, warm=warm)
        return response

    async def _dispatch(
        self, doc: Dict[str, Any], emit: Optional[Emitter]
    ) -> Tuple[Dict[str, Any], bool]:
        """Route one document; returns ``(response, served_warm)``."""
        # The signature memo answers repeat run queries without
        # re-validating, re-constructing or re-hashing the config.
        verb = doc.get("verb")
        sig = None
        if verb == "run":
            sig = _signature(
                (doc.get("config"), doc.get("replicas", 1))
            )
            body = self._sig_memo.get(sig)
            if body is not None:
                self.metrics.inc("warm_memo_hits")
                return (
                    protocol.ok_response(
                        doc.get("id"), {"result": body, "source": "memo"}
                    ),
                    True,
                )

        req = protocol.parse_request(doc)
        if req.verb == "ping":
            return (
                protocol.ok_response(req.id, {
                    "pong": True,
                    "version": protocol.PROTOCOL_VERSION,
                    "draining": self._draining,
                }),
                True,
            )
        if req.verb == "stats":
            return protocol.ok_response(req.id, self.stats_body()), True
        cfgs = req.configs
        if req.verb == "run" and req.replicas > 1:
            from repro.perturb.rng import derive_seed

            cfgs = [
                cfgs[0].with_(seed=derive_seed(cfgs[0].seed, i))
                for i in range(req.replicas)
            ]
        return await self._resolve(req, cfgs, sig, emit)

    def _timeout(self, req: Request) -> Optional[float]:
        return req.timeout_s if req.timeout_s is not None else self.default_timeout_s

    async def _resolve(
        self,
        req: Request,
        cfgs: List[RunConfig],
        sig: Any,
        emit: Optional[Emitter],
    ) -> Tuple[Dict[str, Any], bool]:
        """Probe every config, then answer warm, coalesce or admit."""
        probes = [self.sched.probe(cfg) for cfg in cfgs]
        recs = [rec for rec, _tier in probes]
        warm = {rec.key for rec in recs if rec is not None and rec.done.is_set()}
        if all(rec is not None and rec.done.is_set() for rec in recs):
            replayed = [tier for _rec, tier in probes if tier != "memo"]
            self.metrics.inc("warm_cache_hits" if replayed else "warm_memo_hits")
            source = "cache" if req.verb == "sweep" else (
                replayed[0] if replayed else "memo")
            results = [rec.outcome(cfg) for rec, cfg in zip(recs, cfgs)]
            return self._respond(req, results, source, sig, len(warm)), True

        if req.verb == "run":
            if all(rec is not None for rec in recs):
                self.metrics.inc("coalesced")
                await self._follow(req, recs)
                if self.sched.journal is not None:
                    # Durable before surfaced, as the owner's collect()
                    # guarantees for its own requester.
                    await asyncio.get_running_loop().run_in_executor(
                        None, self.sched.journal.flush
                    )
                results = [rec.outcome(cfg) for rec, cfg in zip(recs, cfgs)]
                return self._respond(req, results, "coalesced", sig), False
            # Eager feasibility check: an invalid point must not burn an
            # admission slot or a worker round-trip.
            from repro.sched import validate_config

            try:
                validate_config(cfgs[0])
            except (KeyError, ValueError) as exc:
                raise ProtocolError(str(exc), kind="invalid-config")

        # Submit before the first await: an identical query that arrives
        # while this one waits finds every record already in flight.
        self._admit()
        batch = self.sched.submit(cfgs, probed=recs)
        job = self._spawn(batch)
        if req.stream and emit is not None and (
            req.verb == "sweep" or req.replicas > 1
        ):
            results = await self._follow(req, batch.records, emit, job)
        else:
            results = await asyncio.wait_for(
                asyncio.shield(job), self._timeout(req)
            )
        return self._respond(req, results, "simulated", sig, len(warm)), False

    async def _follow(
        self,
        req: Request,
        recs: List[Optional[TaskRecord]],
        emit: Optional[Emitter] = None,
        job: Optional["asyncio.Task"] = None,
    ) -> Any:
        """Await ``job`` — or, without one, every record in ``recs``.

        The scheduler's completion hooks feed a queue via
        ``call_soon_threadsafe``.  The listener is registered *before*
        ``rec.done`` is re-checked, so a record settling in between is
        never missed.  With ``emit`` each record going terminal is
        re-emitted as a progress event, in arrival order (records already
        terminal are reported at once as ``warm``).  On timeout the
        listener unregisters and the job keeps running detached.
        """
        loop = asyncio.get_running_loop()
        queue: "asyncio.Queue" = asyncio.Queue()
        keys = list(dict.fromkeys(r.key for r in recs if r is not None))
        self._listen(keys, loop, queue)
        if job is not None:
            # Queued after every completion event of the job's own thread.
            job.add_done_callback(lambda _t: queue.put_nowait(None))

        async def follow() -> Any:
            pending = {
                r.key for r in recs if r is not None and not r.done.is_set()
            }
            done = len(keys) - len(pending)
            if emit is not None and done:
                self.metrics.inc("progress_events")
                await emit(protocol.progress_event(
                    req.id, done, len(keys), "", "warm"))
            while pending or job is not None:
                event = await queue.get()
                if event is None:
                    return job.result()
                key, state = event
                if key in pending:
                    pending.discard(key)
                    done += 1
                    if emit is not None:
                        self.metrics.inc("progress_events")
                        await emit(protocol.progress_event(
                            req.id, done, len(keys), key, state))
            return None

        try:
            return await asyncio.wait_for(follow(), self._timeout(req))
        finally:
            self._unlisten(keys, queue)

    # -- telemetry ------------------------------------------------------------
    def _cache_stats(self) -> Optional[Dict[str, int]]:
        cache = self.sched.cache
        return cache.stats() if cache is not None else None

    def stats_body(self) -> Dict[str, Any]:
        """The ``stats`` verb / ``GET /stats`` document."""
        snap = self.sched.snapshot()
        return {
            "version": protocol.PROTOCOL_VERSION,
            "draining": self._draining,
            "service": self.metrics.to_dict(),
            "scheduler": snap,
            "cache": self._cache_stats(),
            "memo_entries": len(self._sig_memo),
        }

    def render_metrics(self) -> str:
        """The ``GET /metrics`` Prometheus text."""
        from repro.serve.metrics import render_prometheus

        return render_prometheus(
            self.metrics.to_dict(),
            scheduler=self.sched.snapshot(),
            cache=self._cache_stats(),
        )
