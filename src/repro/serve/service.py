"""The simulation service: cache tiers, coalescing, admission, drain.

One :class:`SimulationService` sits between the listeners
(:mod:`repro.serve.server`) and the batch machinery (PR 5's
:class:`~repro.sched.Scheduler` over PR 2's content-addressed
:class:`~repro.cache.RunCache`).  Every query resolves through a fixed
ladder, cheapest tier first:

1. **Request-signature memo** — the canonicalized wire config of an
   already-answered query maps straight to its response body: no
   ``RunConfig`` construction, no hashing.  This is the 10k+/s warm path.
2. **Key memo** — a different spelling of a known config (alias fields,
   equivalent defaults) hits the in-memory body memo by content key.
3. **Run cache / journal probe** — warm on-disk entries
   (:meth:`RunCache.get` / a journal ``get``) are replayed without
   touching a worker and promoted into the memo tiers.
4. **Coalesced wait** — a query whose key is already simulating awaits
   the in-flight job; N connections asking for the same cold config
   cause exactly one scheduler task.
5. **Admitted simulation** — a genuinely cold query takes one of
   ``max_inflight`` admission slots and runs ``Scheduler.map`` on a
   worker thread off the event loop.  When every slot is busy the query
   is *rejected* with a structured ``busy`` error (HTTP 429) instead of
   queueing unboundedly — a cold-miss storm degrades into fast failures
   while warm traffic keeps flowing.

Robustness contract: per-request timeouts detach the requester (the
simulation itself keeps running and lands in cache/journal for the next
asker), ``begin_drain`` flips the service into refuse-new/finish-
in-flight mode (SIGTERM), and simulator/scheduler failures — including
:class:`~repro.sched.PoisonedConfigError` — come back as structured
error payloads on a healthy connection.
"""

from __future__ import annotations

import asyncio
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Awaitable, Callable, Dict, List, Optional, Set, Tuple

from repro.cache import config_key
from repro.core.config import RunConfig, RunResult
from repro.sched import PoisonedConfigError, Scheduler, SchedulerError
from repro.sched.task import TaskRecord
from repro.serve import protocol
from repro.serve.metrics import ServiceMetrics
from repro.serve.protocol import ProtocolError, Request

__all__ = ["SimulationService"]

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
        #: request-signature -> result body (tier 1)
        self._sig_memo: Dict[Any, Dict[str, Any]] = {}
        #: content key / job key -> result body (tier 2)
        self._memo: Dict[str, Dict[str, Any]] = {}
        #: job key -> in-flight asyncio task (coalescing target, tier 4)
        self._inflight: Dict[str, "asyncio.Task"] = {}
        #: admission slots currently held by cold jobs (tier 5)
        self._cold_jobs = 0
        #: every live cold-job task, awaited by drain()
        self._jobs: Set["asyncio.Task"] = set()
        self._exec = ThreadPoolExecutor(
            max_workers=self.max_inflight,
            thread_name_prefix="repro-serve",
        )
        self._draining = False
        self._closed = False
        #: content key -> [(loop, queue)]: progress listeners fed by the
        #: scheduler completion hook (foreign threads), guarded by a
        #: plain lock because the hook never re-enters the service.
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
        """Release the worker pool and journal (flushes pending lines)."""
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
    def _result_body(self, cfg: RunConfig, result: RunResult) -> Dict[str, Any]:
        body = protocol.result_to_dict(result)
        body["gflops"] = result.gflops
        body["seconds_per_step"] = result.seconds_per_step
        return body

    def _body_from_payload(
        self, cfg: RunConfig, payload: Dict[str, Any]
    ) -> Dict[str, Any]:
        """A result body from a journal payload (exact floats)."""
        result = RunResult(
            config=cfg,
            elapsed_s=float(payload["elapsed_s"]),
            phases={k: float(v) for k, v in payload["phases"].items()},
            comm_stats={k: int(v) for k, v in payload["comm_stats"].items()},
        )
        return self._result_body(cfg, result)

    # -- the query ladder -----------------------------------------------------
    def _probe_warm(self, key: str, cfg: RunConfig) -> Optional[Tuple[Dict[str, Any], str]]:
        """Tiers 2-3: memo, then run cache, then journal. No worker."""
        body = self._memo.get(key)
        if body is not None:
            self.metrics.inc("warm_memo_hits")
            return body, "memo"
        cache = self.sched.cache
        if cache is not None:
            cached = cache.get(cfg, record_miss=False)
            if cached is not None:
                body = self._result_body(cfg, cached)
                self._memo[key] = body
                self.metrics.inc("warm_cache_hits")
                return body, "cache"
        journal = self.sched.journal
        if journal is not None:
            payload = journal.get(key) if key in journal else None
            if payload is not None:
                try:
                    body = self._body_from_payload(cfg, payload)
                except (KeyError, TypeError, ValueError):
                    return None  # ill-shaped journal payload: simulate
                self._memo[key] = body
                self.metrics.inc("warm_cache_hits")
                return body, "journal"
        return None

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

    def _spawn_job(
        self, job_key: str, work: Callable[[], Dict[str, Any]]
    ) -> "asyncio.Task":
        """Dispatch an admitted cold job onto the worker thread pool.

        The returned task owns the admission slot; it is registered for
        coalescing under ``job_key`` and for ``drain()``.  The task's
        body memoizes on success.  Requesters await it through
        ``asyncio.shield`` so a per-request timeout detaches the
        requester without cancelling the shared job.
        """
        loop = asyncio.get_running_loop()

        async def job() -> Dict[str, Any]:
            try:
                body = await loop.run_in_executor(self._exec, work)
            finally:
                self._inflight.pop(job_key, None)
                self._release()
            self._memo[job_key] = body
            return body

        task = loop.create_task(job())
        self._inflight[job_key] = task
        self._jobs.add(task)
        task.add_done_callback(self._jobs.discard)
        return task

    def _run_one(self, cfg: RunConfig) -> Dict[str, Any]:
        """Worker-thread body of a single-config cold job."""
        result = self.sched.map([cfg], return_exceptions=True)[0]
        if isinstance(result, BaseException):
            raise result
        return self._result_body(cfg, result)

    def _run_replicated(self, cfg: RunConfig, replicas: int) -> Dict[str, Any]:
        """Worker-thread body of a Monte-Carlo replication job.

        Exactly :func:`repro.core.runner.run_replicated` with this
        service's scheduler: replica 0 keeps the root seed, stats are
        computed over every replica's ``elapsed_s`` — so the served
        stats reproduce a direct ``run_replicated`` call bit-for-bit.
        """
        from repro.perturb.rng import derive_seed
        from repro.perturb.stats import replication_stats

        seeded = [
            cfg.with_(seed=derive_seed(cfg.seed, i)) for i in range(replicas)
        ]
        results = self.sched.map(seeded)
        stats = replication_stats([r.elapsed_s for r in results])
        body = self._result_body(cfg, results[0])
        body["stats"] = dict(stats)
        body["replicas"] = replicas
        return body

    def _run_batch(self, cfgs: List[RunConfig]) -> List[Any]:
        """Worker-thread body of a sweep job (exceptions in-slot)."""
        return self.sched.map(cfgs, return_exceptions=True)

    # -- request handling -----------------------------------------------------
    async def handle(
        self, doc: Dict[str, Any], emit: Optional[Emitter] = None
    ) -> Dict[str, Any]:
        """Answer one decoded request document.

        ``emit`` (when given) receives progress documents for streamed
        sweep/replica jobs before the final response is returned.  Every
        failure mode — protocol, validation, poisoning, timeout,
        backpressure — returns a structured error response; nothing
        raises to the connection handler except transport errors from
        ``emit`` itself.
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
        self.metrics.inc("responses_ok")
        self.metrics.observe_latency(time.perf_counter() - t0, warm=warm)
        return response

    async def _dispatch(
        self, doc: Dict[str, Any], emit: Optional[Emitter]
    ) -> Tuple[Dict[str, Any], bool]:
        """Route one document; returns ``(response, served_warm)``."""
        # Tier 1: the signature memo answers repeat run queries without
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
        if req.verb == "run":
            return await self._handle_run(req, sig, emit)
        return await self._handle_sweep(req, emit)

    def _timeout(self, req: Request) -> Optional[float]:
        return req.timeout_s if req.timeout_s is not None else self.default_timeout_s

    async def _handle_run(
        self, req: Request, sig: Any, emit: Optional[Emitter]
    ) -> Tuple[Dict[str, Any], bool]:
        cfg = req.configs[0]
        key = config_key(cfg)
        job_key = key if req.replicas == 1 else f"{key}:replicas={req.replicas}"

        if req.replicas == 1:
            probe = self._probe_warm(key, cfg)
            if probe is not None:
                body, source = probe
                if sig is not None:
                    self._sig_memo[sig] = body
                return (
                    protocol.ok_response(
                        req.id, {"result": body, "source": source}
                    ),
                    True,
                )
        else:
            body = self._memo.get(job_key)
            if body is not None:
                self.metrics.inc("warm_memo_hits")
                if sig is not None:
                    self._sig_memo[sig] = body
                return (
                    protocol.ok_response(
                        req.id, {"result": body, "source": "memo"}
                    ),
                    True,
                )

        # Eager feasibility check: an invalid point must not burn an
        # admission slot or a worker round-trip.
        from repro.sched import validate_config

        try:
            validate_config(cfg)
        except (KeyError, ValueError) as exc:
            raise ProtocolError(str(exc), kind="invalid-config")

        task = self._inflight.get(job_key)
        coalesced = task is not None
        if coalesced:
            self.metrics.inc("coalesced")
        else:
            self._admit()
            if req.replicas == 1:
                task = self._spawn_job(job_key, lambda: self._run_one(cfg))
            else:
                task = self._spawn_job(
                    job_key,
                    lambda: self._run_replicated(cfg, req.replicas),
                )
        if req.replicas > 1 and req.stream and emit is not None and not coalesced:
            body = await self._stream_job(req, task, self._replica_keys(cfg, req.replicas), emit)
        else:
            body = await asyncio.wait_for(
                asyncio.shield(task), self._timeout(req)
            )
        if sig is not None:
            self._sig_memo[sig] = body
        return (
            protocol.ok_response(
                req.id,
                {
                    "result": body,
                    "source": "coalesced" if coalesced else "simulated",
                },
            ),
            False,
        )

    def _replica_keys(self, cfg: RunConfig, replicas: int) -> List[str]:
        from repro.perturb.rng import derive_seed

        return [
            config_key(cfg.with_(seed=derive_seed(cfg.seed, i)))
            for i in range(replicas)
        ]

    async def _handle_sweep(
        self, req: Request, emit: Optional[Emitter]
    ) -> Tuple[Dict[str, Any], bool]:
        cfgs = req.configs
        keys = [config_key(c) for c in cfgs]
        distinct = list(dict.fromkeys(keys))

        # Fully warm sweeps resolve from the memo/cache tiers with no
        # admission slot; one cold key sends the whole batch through the
        # scheduler (which re-resolves the warm ones itself).
        slots: List[Optional[Dict[str, Any]]] = []
        for key, cfg in zip(keys, cfgs):
            probe = self._probe_warm(key, cfg)
            slots.append(probe[0] if probe is not None else None)
        warm_keys = {k for k, s in zip(keys, slots) if s is not None}
        cold = [k for k in distinct if k not in warm_keys]
        if not cold:
            body = {
                "results": list(slots),
                "total": len(cfgs),
                "distinct": len(distinct),
                "warm": len(distinct),
                "source": "cache",
            }
            return protocol.ok_response(req.id, body), True

        self._admit()
        task = self._spawn_sweep(cfgs)
        if req.stream and emit is not None:
            results = await self._stream_job(req, task, cold, emit,
                                             pre_done=len(distinct) - len(cold))
        else:
            results = await asyncio.wait_for(
                asyncio.shield(task), self._timeout(req)
            )
        out: List[Dict[str, Any]] = []
        errors = 0
        for cfg, item in zip(cfgs, results):
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
                out.append(item)
        body = {
            "results": out,
            "total": len(cfgs),
            "distinct": len(distinct),
            "warm": len(distinct) - len(cold),
            "errors": errors,
            "source": "simulated",
        }
        return protocol.ok_response(req.id, body), False

    def _spawn_sweep(self, cfgs: List[RunConfig]) -> "asyncio.Task":
        """An admitted sweep job: map the batch, bodies per slot."""

        def work() -> List[Any]:
            results = self._run_batch(cfgs)
            return [
                r if isinstance(r, BaseException)
                else self._result_body(cfg, r)
                for cfg, r in zip(cfgs, results)
            ]

        # Sweep jobs are not coalesced whole (their configs dedup inside
        # the scheduler); key them uniquely so coalescing stays off.
        job_key = f"sweep:{id(cfgs)}:{time.monotonic_ns()}"
        task = self._spawn_job(job_key, work)
        # Sweeps are never re-served from the job memo (the per-config
        # memo already covers every slot).
        task.add_done_callback(lambda _t: self._memo.pop(job_key, None))
        return task

    async def _stream_job(
        self,
        req: Request,
        task: "asyncio.Task",
        pending_keys: List[str],
        emit: Emitter,
        pre_done: int = 0,
    ) -> Any:
        """Await a job while forwarding per-task progress events.

        ``pending_keys`` are the distinct content keys expected to go
        terminal after dispatch; ``pre_done`` counts keys that were
        already warm (reported as instantly done).  The scheduler's
        completion hooks feed a queue via ``call_soon_threadsafe``;
        events are re-emitted in arrival order.  On timeout the listener
        unregisters and the job keeps running detached.
        """
        loop = asyncio.get_running_loop()
        queue: "asyncio.Queue" = asyncio.Queue()
        pending = set(pending_keys)
        total = len(pending) + pre_done
        done_count = pre_done
        self._listen(pending, loop, queue)
        deadline = None
        timeout = self._timeout(req)
        if timeout is not None:
            deadline = loop.time() + timeout
        shielded = asyncio.shield(task)
        get_task: Optional["asyncio.Task"] = None
        try:
            if pre_done:
                self.metrics.inc("progress_events")
                await emit(protocol.progress_event(
                    req.id, done_count, total, "", "warm"))
            while True:
                if get_task is None:
                    get_task = asyncio.ensure_future(queue.get())
                budget = None
                if deadline is not None:
                    budget = deadline - loop.time()
                    if budget <= 0:
                        raise asyncio.TimeoutError()
                done, _ = await asyncio.wait(
                    {shielded, get_task},
                    timeout=budget,
                    return_when=asyncio.FIRST_COMPLETED,
                )
                if not done:
                    raise asyncio.TimeoutError()
                if get_task in done:
                    key, state = get_task.result()
                    get_task = None
                    if key in pending:
                        pending.discard(key)
                        done_count += 1
                        self.metrics.inc("progress_events")
                        await emit(protocol.progress_event(
                            req.id, done_count, total, key, state))
                if shielded in done:
                    # Flush events already queued before returning.
                    while not queue.empty():
                        key, state = queue.get_nowait()
                        if key in pending:
                            pending.discard(key)
                            done_count += 1
                            self.metrics.inc("progress_events")
                            await emit(protocol.progress_event(
                                req.id, done_count, total, key, state))
                    return shielded.result()
        finally:
            self._unlisten(pending_keys, queue)
            if get_task is not None:
                get_task.cancel()

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
            "memo_entries": len(self._memo),
        }

    def render_metrics(self) -> str:
        """The ``GET /metrics`` Prometheus text."""
        from repro.serve.metrics import render_prometheus

        return render_prometheus(
            self.metrics.to_dict(),
            scheduler=self.sched.snapshot(),
            cache=self._cache_stats(),
        )
