"""``serve_open``: an open loop of submissions to ``python -m repro.serve``.

The server runs as its own process with ``--jobs 2 --preflight`` and a
fresh check cache.  Requests are due at a fixed rate well below
saturation, whatever the server does: small BLIF pairs of alu4, comp
and C1908, half of them with an inserted error, and every fourth one
an exact resubmission of a pair sent long enough earlier that it
replays from the check cache.  Each request is timed from its due time
to the ``ts`` of its ``done`` event, so polling never enters the
measurement.  One thread submits, one thread collects events, so the
load uses at most two connections.
"""

from __future__ import annotations

import hashlib
import json
import os
import queue
import random
import signal
import subprocess
import sys
import threading
import time
from typing import Dict, List, Optional

from common import NOMINAL_REF_S, Tally, check_monotone, median, \
    percentile, pinned_ok, reference_s, tune_spec, work_dir

CIRCUITS = ("alu4", "comp", "C1908")

#: Requests due per second, and the share of them that resubmit.
RATE = 8.0
RESUBMIT_EVERY = 4

#: A resubmission repeats the request sent this many requests earlier
#: (4 s at RATE), long after that one has finished.
LAG = 32

#: Requests whose verdicts are pinned and whose cache counters are
#: reported; every phase sends at least these.
PREFIX_JOBS = 48

#: How long a phase may wait for its last verdicts.
DRAIN_S = 60.0

#: Slack before the next due time that a reference sample needs, and
#: how many requests either side of one a latency's samples come from.
REFERENCE_ROOM_S = 0.05
REFERENCE_WINDOW = 16

#: How often the generator looks for an idle server while it waits.
IDLE_POLL_S = 0.005


class Server:
    """One ``python -m repro.serve`` process and its address."""

    def __init__(self, directory: str, trace: bool) -> None:
        os.makedirs(directory, exist_ok=True)
        self.log_path = os.path.join(directory, "server.log")
        command = [sys.executable, "-m", "repro.serve", "--port", "0",
                   "--jobs", "2", "--preflight",
                   "--cache-dir", os.path.join(directory, "cache")]
        if trace:
            command += ["--trace", os.path.join(directory, "trace.jsonl")]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            part for part in sys.path if part)
        with open(self.log_path, "w") as log:
            self.process = subprocess.Popen(
                command, stdout=subprocess.DEVNULL, stderr=log, env=env)
        self.host, self.port = self._wait_ready(60.0)

    def _wait_ready(self, timeout: float) -> tuple:
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            with open(self.log_path) as log:
                for line in log:
                    if line.startswith("serving on http://"):
                        address = line.split("http://", 1)[1].split()[0]
                        host, port = address.rsplit(":", 1)
                        return host, int(port)
            if self.process.poll() is not None:
                break
            time.sleep(0.01)
        self.stop()
        raise RuntimeError("server did not start; see %s" % self.log_path)

    def client(self):
        from repro.serve.client import ServeClient

        return ServeClient(self.host, self.port, timeout=DRAIN_S,
                           max_retries=0)

    def stop(self) -> None:
        """SIGINT drains gracefully; a server that does not exit in
        time is killed.  Either way the process is reaped."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
            try:
                self.process.wait(30.0)
            except subprocess.TimeoutExpired:
                self.process.kill()
        self.process.wait()


def _requests(seed: int, count: int) -> List[Dict]:
    """The seeded request stream: fresh pairs in stratified blocks
    (each circuit once clean, once with an error), every
    ``RESUBMIT_EVERY``-th slot a repeat of the one ``LAG`` earlier."""
    from repro.api import BlackBoxChecker
    from repro.generators.benchmarks import benchmark_circuit
    from repro.partial.blackbox import PartialImplementation
    from repro.partial.mutations import insert_random_error
    from repro.serve.protocol import (ProtocolError, load_pair,
                                      pair_to_request, parse_submit)

    checkers = {name: BlackBoxChecker(tune_spec(benchmark_circuit(name)))
                for name in CIRCUITS}
    rng = random.Random("serve_open:%d" % seed)
    seen = set()

    def draw(name: str, erroneous: bool) -> Optional[Dict]:
        """One fresh submission, or None when it repeats an earlier
        pair or the front door would reject it."""
        checker = checkers[name]
        partial = checker.carve(fraction=0.1, num_boxes=1,
                                seed=rng.getrandbits(32))
        if erroneous:
            mutated, _ = insert_random_error(partial.circuit, rng)
            partial = PartialImplementation(mutated, partial.boxes)
        document = pair_to_request(checker.spec, partial, tenant="bench",
                                   seed=rng.getrandbits(31))
        key = hashlib.sha256((document["spec"] + document["impl"])
                             .encode("utf-8")).hexdigest()
        if key in seen:
            return None
        if erroneous:
            # Some inserted errors leave a netlist that fails lint at
            # the front door; the workload sends only valid pairs.
            try:
                load_pair(parse_submit(
                    json.dumps(document).encode("utf-8")))
            except ProtocolError:
                return None
        seen.add(key)
        return document

    block: List[tuple] = []
    out: List[Dict] = []
    for index in range(count):
        if index % RESUBMIT_EVERY == RESUBMIT_EVERY - 1 and index >= LAG:
            out.append(dict(out[index - LAG], resubmit=index - LAG))
            continue
        if not block:
            block = [(name, erroneous) for name in CIRCUITS
                     for erroneous in (False, True)]
            rng.shuffle(block)
        name, erroneous = block.pop()
        document = None
        while document is None:
            document = draw(name, erroneous)
        out.append({"document": document, "clean": not erroneous,
                    "circuit": name, "resubmit": None})
    return out


def _warm_up(server: Server) -> None:
    """One tiny job per slot, so both workers have imported and run
    before the clock starts."""
    from repro.api import BlackBoxChecker
    from repro.generators.benchmarks import benchmark_circuit
    from repro.serve.protocol import pair_to_request

    checker = BlackBoxChecker(benchmark_circuit("comp"))
    client = server.client()
    ids = [client.submit(pair_to_request(
        checker.spec, checker.carve(fraction=0.05, seed=seed),
        tenant="warmup", seed=seed, checks=["random_pattern"]))["id"]
        for seed in (1, 2)]
    for job_id in ids:
        if client.wait(job_id, timeout=DRAIN_S)["status"] != "done":
            raise RuntimeError("warm-up job %s failed" % job_id)


def _start(seed: int, name: str, trace: bool) -> Server:
    server = Server(work_dir(name), trace)
    try:
        _warm_up(server)
    except BaseException:
        server.stop()
        raise
    return server


def setup(seed: int, seconds: float) -> Dict:
    count = max(PREFIX_JOBS, int(seconds * RATE))
    state = {"seed": seed, "requests": _requests(seed, count)}
    state["server"] = _start(seed, "serve_open", trace=False)
    return state


def teardown(state: Dict) -> None:
    server = state.pop("server", None)
    if server is not None:
        server.stop()


def _collect(server: Server, inbox: "queue.Queue", done: Dict) -> None:
    """Collector thread: stream each submitted job's events until it
    is done, then fetch its result."""
    client = server.client()
    while True:
        item = inbox.get()
        if item is None:
            return
        index, job_id = item
        try:
            events = {event["ev"]: event for event in
                      client.stream(job_id)}
            done[index] = (events, client.job(job_id))
        except Exception as exc:  # recorded as a failed attempt
            done[index] = exc


def _phase(server: Server, requests: List[Dict], seconds: float)\
        -> Dict:
    """Send ``requests`` on schedule; returns per-request timings."""
    from repro.serve.client import ServeError

    count = max(PREFIX_JOBS, min(len(requests), int(seconds * RATE)))
    inbox: "queue.Queue" = queue.Queue()
    done: Dict[int, object] = {}
    collector = threading.Thread(target=_collect,
                                 args=(server, inbox, done))
    collector.start()
    client = server.client()
    due: List[float] = []
    sent: List[float] = []
    refused: Dict[int, str] = {}
    references: List[tuple] = []
    t0 = time.time() + 0.05
    try:
        for index in range(count):
            due.append(t0 + index / RATE)
            sampled = False
            while True:
                pause = due[index] - time.time()
                if pause <= 0:
                    break
                # Sample the host once the server is idle, so that the
                # sample does not measure the load itself.
                if not sampled and pause > REFERENCE_ROOM_S \
                        and len(done) + len(refused) == index:
                    references.append((index, reference_s()))
                    sampled = True
                else:
                    time.sleep(min(pause, IDLE_POLL_S))
            sent.append(time.time())
            try:
                job = client.submit(requests[index]["document"])
            except (ServeError, OSError) as exc:
                refused[index] = str(exc)
                continue
            inbox.put((index, job["id"]))
    finally:
        inbox.put(None)
        collector.join(DRAIN_S + 5.0)
    return {"count": count, "due": due, "sent": sent, "done": done,
            "refused": refused, "t0": t0, "references": references}


def _evaluate(phase: Dict, requests: List[Dict], tally: Tally,
              verdicts: List) -> List[int]:
    """Known-answer checks; returns the indices of good verdicts."""
    good = []
    keys: Dict[int, list] = {}
    for index in range(phase["count"]):
        tally.attempted += 1
        request = requests[index]
        outcome = phase["done"].get(index)
        if index in phase["refused"]:
            tally.fail("request %d refused: %s"
                       % (index, phase["refused"][index]))
            continue
        if not isinstance(outcome, tuple) or "done" not in outcome[0]:
            tally.fail("request %d: no verdict (%r)" % (index, outcome))
            continue
        view = outcome[1]
        verdict = view["verdict"]
        checks = verdict["checks"]
        key = [verdict["outcome"], verdict["refuted"], verdict["exact"],
               verdict["failing_output"],
               [[c["check"], c["error_found"], c["exact"]]
                for c in checks]]
        keys[index] = key
        if index < PREFIX_JOBS:
            verdicts.append([index] + key)
        original = request["resubmit"]
        # A pair the static preflight decides never reaches the cache.
        decided = [c["check"] for c in checks] == ["preflight"]
        if verdict["outcome"] != "ok":
            tally.fail("request %d: outcome %s" % (index,
                                                   verdict["outcome"]))
        elif request["clean"] and verdict["refuted"]:
            tally.fail("request %d: a clean pair was refuted" % index)
        elif not check_monotone([c["error_found"] for c in checks]):
            tally.fail("request %d: rung detections not monotone"
                       % index)
        elif original is not None and not (view["cached"] or decided):
            tally.fail("request %d: resubmission missed the cache"
                       % index)
        elif original is not None and original in keys \
                and keys[original] != key:
            tally.fail("request %d: replay differs from request %d"
                       % (index, original))
        else:
            good.append(index)
    return good


def _latencies(phase: Dict, good: List[int]) -> List[float]:
    return [phase["done"][i][0]["done"]["ts"] - phase["due"][i]
            for i in good]


def _nominal_latencies(phase: Dict, good: List[int]) -> List[float]:
    """Latencies scaled to the nominal host, each by the median of the
    reference samples taken within ``REFERENCE_WINDOW`` requests of it
    (one sample alone is noisy)."""
    samples = phase["references"]
    if not samples:
        return _latencies(phase, good)
    everywhere = median([sample for _, sample in samples])
    out = []
    for index, latency in zip(good, _latencies(phase, good)):
        near = [sample for at, sample in samples
                if abs(at - index) <= REFERENCE_WINDOW]
        out.append(latency * NOMINAL_REF_S / median(near or [everywhere]))
    return out


def run(state: Dict, seconds: float, trace: bool) -> tuple:
    requests = state["requests"]
    tally = Tally()
    verdicts: List = []
    if not trace:
        phase = _phase(state["server"], requests, seconds)
        good = _evaluate(phase, requests, tally, verdicts)
        latencies = _latencies(phase, good)
        last = max([phase["done"][i][0]["done"]["ts"] for i in good],
                   default=phase["t0"] + 1.0)
        pinned = pinned_ok("serve_open", state["seed"], verdicts, tally)
        print("wall verdict_p50_s %.4f verdict_p90_s %.4f"
              % (median(latencies), percentile(latencies, 90)),
              file=sys.stderr)
        # The load is paced by the wall clock, so only the latencies
        # are scaled to the nominal host.
        nominal = _nominal_latencies(phase, good)
        return tally, pinned, {
            "cases_per_s": len(good) / (last - phase["t0"]),
            "verdict_p50_s": median(nominal),
            "verdict_p90_s": percentile(nominal, 90)}
    # Traced: half the window against the untraced server, half
    # against a fresh one started with --trace, on the same requests.
    plain = _phase(state["server"], requests, seconds / 2)
    plain_p50 = median(_latencies(
        plain, _evaluate(plain, requests, Tally(), [])))
    teardown(state)
    state["server"] = _start(state["seed"], "serve_open_traced",
                             trace=True)
    phase = _phase(state["server"], requests, seconds / 2)
    good = _evaluate(phase, requests, tally, verdicts)
    pinned = pinned_ok("serve_open", state["seed"], verdicts, tally)
    stamps = {i: phase["done"][i][0] for i in good}
    results = {i: phase["done"][i][1]["result"] for i in good}
    cache = {"hits": 0, "misses": 0, "stores": 0}
    for index in good:
        if index < PREFIX_JOBS:
            for key in cache:
                cache[key] += results[index]["cache"][key]
    return tally, pinned, {
        "serve.admit_p50_s": median(
            [stamps[i]["queued"]["ts"] - phase["due"][i] for i in good]),
        "serve.dispatch_p50_s": median(
            [stamps[i]["done"]["ts"] - stamps[i]["started"]["ts"]
             - stamps[i]["done"]["seconds"] for i in good]),
        "serve.exec_p50_s": median(
            [stamps[i]["done"]["seconds"] for i in good]),
        "serve.queue_p90_s": percentile(
            [stamps[i]["started"]["ts"] - stamps[i]["queued"]["ts"]
             for i in good], 90),
        "serve.rejected": len(phase["refused"]),
        "serve.generator_lag_p90_s": percentile(
            [s - d for s, d in zip(phase["sent"], phase["due"])], 90),
        "static.cache_hits": cache["hits"],
        "static.cache_misses": cache["misses"],
        "static.cache_stores": cache["stores"],
        "obs.overhead_share": median(_latencies(phase, good))
        / plain_p50 - 1.0}
