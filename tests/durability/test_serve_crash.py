"""SIGKILL the whole serve process between checkpoint and WAL tail.

The serving layer adds its own durable state on top of the engine's —
the ``sessions.json`` sidecar and the server-assigned arrival clock —
so this suite crashes the *entire process* (engine, batcher, sessions)
and asserts the restarted server's answer histories are byte-identical
to a twin that never crashed.  Runs over both engine planes; on the
sharded plane it also checks that the SIGKILLed server's shard workers
notice their parent is gone and exit instead of lingering as orphans.
"""

import json
import os
import signal
import subprocess
import sys
import time
import urllib.request

import pytest

#: How long an orphaned shard worker may outlive its SIGKILLed parent.
ORPHAN_EXIT_SECONDS = 5.0

CHILD = """\
import asyncio
import sys

from repro.serve.app import ServeConfig, TopKServer


async def main():
    config = ServeConfig(
        port=0,
        durability_dir=sys.argv[1],
        engine=sys.argv[2],
        shards=2,
        linger_ms=10,
        checkpoint_interval=4,
    )
    server = TopKServer(config)
    await server.start()
    print("READY", server.port, flush=True)
    await server.serve_forever(install_signal_handlers=False)


asyncio.run(main())
"""

SUBSCRIPTIONS = [
    {"name": "plain", "n": 20, "k": 3, "s": 5},
    {"name": "mintopk", "n": 30, "k": 4, "s": 5, "algorithm": "MinTopK"},
    {"name": "pref", "n": 20, "k": 3, "s": 5, "preference": [1.0, 0.5]},
]

EVENTS = [
    {"id": f"e{i}", "score": float((i * 37) % 101), "payload": [0.1 * i, 0.2 * i]}
    for i in range(120)
]


def _children(pid):
    """Pids of every process forked by any thread of ``pid``."""
    children = set()
    task_dir = f"/proc/{pid}/task"
    for tid in os.listdir(task_dir):
        with open(os.path.join(task_dir, tid, "children")) as fh:
            children.update(int(child) for child in fh.read().split())
    return children


def _running(pid):
    """True while ``pid`` exists and is not a zombie awaiting its reaper."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            state = fh.read().rsplit(")", 1)[1].split()[0]
    except (FileNotFoundError, ProcessLookupError):
        return False
    return state != "Z"


def _call(port, method, path, body=None):
    data = None if body is None else json.dumps(body).encode()
    request = urllib.request.Request(
        f"http://127.0.0.1:{port}{path}", data=data, method=method
    )
    if data:
        request.add_header("Content-Type", "application/json")
    with urllib.request.urlopen(request, timeout=10) as response:
        raw = response.read()
        return json.loads(raw) if raw else None


class _Server:
    """One serve subprocess; .port is parsed from its READY line."""

    def __init__(self, script, durability_dir, engine):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            part for part in ("src", env.get("PYTHONPATH")) if part
        )
        self.process = subprocess.Popen(
            [sys.executable, script, durability_dir, engine],
            env=env,
            stdout=subprocess.PIPE,
            text=True,
        )
        line = self.process.stdout.readline()
        assert line.startswith("READY"), f"server failed to boot: {line!r}"
        self.port = int(line.split()[1])

    def sigkill(self):
        os.kill(self.process.pid, signal.SIGKILL)
        self.process.wait(timeout=10)

    def histories(self):
        # linger-flushed batches need a beat to land before reading
        time.sleep(0.3)
        return {
            sub["name"]: _call(
                self.port, "GET", f"/v1/subscriptions/{sub['name']}/results"
            )["results"]
            for sub in SUBSCRIPTIONS
        }


@pytest.fixture()
def child_script(tmp_path):
    script = tmp_path / "serve_child.py"
    script.write_text(CHILD)
    return str(script)


@pytest.mark.parametrize("engine", ["local", "sharded"])
def test_serve_process_sigkill_recovers_byte_identical(
    tmp_path, child_script, engine
):
    crash_dir = str(tmp_path / "crashed")
    twin_dir = str(tmp_path / "twin")

    crashed = _Server(child_script, crash_dir, engine)
    for sub in SUBSCRIPTIONS:
        _call(crashed.port, "POST", "/v1/subscriptions", sub)
    _call(crashed.port, "POST", "/v1/events", {"events": EVENTS[:80]})
    time.sleep(0.3)  # let the batcher flush and the engine checkpoint
    workers = _children(crashed.process.pid)
    if engine == "sharded":
        assert len(workers) == 2, f"expected 2 shard workers, found {workers}"
    crashed.sigkill()
    deadline = time.monotonic() + ORPHAN_EXIT_SECONDS
    while any(_running(pid) for pid in workers) and time.monotonic() < deadline:
        time.sleep(0.05)
    orphans = sorted(pid for pid in workers if _running(pid))
    assert not orphans, f"shard workers outlived their SIGKILLed parent: {orphans}"

    restarted = _Server(child_script, crash_dir, engine)
    stats = _call(restarted.port, "GET", "/v1/stats")
    recovery = stats["durability"]["recovery"]
    assert recovery["recovered_subscriptions"] == len(SUBSCRIPTIONS)
    assert recovery["resumed_at_t"] == 80
    if engine == "local":
        assert recovery["restored_groups"] in (0, 2)  # (20, 5) and (30, 5)
    else:
        assert recovery["restored_groups"] is None  # recovered per shard
    _call(restarted.port, "POST", "/v1/events", {"events": EVENTS[80:]})
    recovered_histories = restarted.histories()
    restarted.sigkill()

    twin = _Server(child_script, twin_dir, engine)
    for sub in SUBSCRIPTIONS:
        _call(twin.port, "POST", "/v1/subscriptions", sub)
    _call(twin.port, "POST", "/v1/events", {"events": EVENTS})
    twin_histories = twin.histories()
    twin.sigkill()

    for sub in SUBSCRIPTIONS:
        name = sub["name"]
        assert recovered_histories[name], f"{name}: no recovered answers"
        assert recovered_histories[name] == twin_histories[name], (
            f"{name}: recovered answer stream diverged from the twin"
        )
