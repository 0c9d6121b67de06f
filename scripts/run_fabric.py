"""Launch and supervise a shard-server fleet for the KB fabric.

Spawns one ``python -m repro.service.fabric.shard_server`` process per
shard replica over the files of a store directory (primary files plus
``.r<N>`` replica siblings — the same layout
``Fabric.launch_local`` uses in-process), reads each server's
announced address from its stdout, and writes the full address table
as JSON so a service can attach with::

    ServiceConfig(
        store_path=<directory>,
        store_shards=<N>,
        store_backend="fabric",
        replication_factor=<R>,
        fabric_addresses=<the JSON file's "addresses">,
    )

Then supervises: a server process that dies is restarted on the same
shard file and port, and the address table is rewritten (ports are
pinned after the first launch, so clients reconnect without
re-reading it). SIGTERM/SIGINT terminate the fleet cleanly.

The servers run this checkout's code, so the services attaching to
them must run the same release: a request of another frame version
(``repro.service.fabric.protocol.FRAME_VERSION``) is refused with a
typed ``ProtocolError`` naming both versions.

This is the deployment shape where shard servers outlive any one
service process; for tests and single-host serving,
``store_backend="fabric"`` without ``fabric_addresses`` launches the
same servers in-process instead.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

_SRC_DIR = str(Path(__file__).resolve().parent.parent / "src")
sys.path.insert(0, _SRC_DIR)

from repro.service.fabric.cluster import fabric_replica_paths  # noqa: E402

_POLL_SECONDS = 0.5


def _spawn(path: str, host: str, port: int) -> subprocess.Popen:
    """Start one shard server; returns the process (stdout piped)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        part
        for part in (_SRC_DIR, env.get("PYTHONPATH"))
        if part
    )
    return subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro.service.fabric.shard_server",
            "--path",
            path,
            "--host",
            host,
            "--port",
            str(port),
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        text=True,
        env=env,
    )


def _read_announcement(proc: subprocess.Popen, path: str) -> dict:
    """Parse the one-line JSON address announcement from stdout."""
    assert proc.stdout is not None
    line = proc.stdout.readline()
    if not line:
        raise RuntimeError(
            f"shard server for {path} exited before announcing its "
            f"address (rc={proc.poll()})"
        )
    return json.loads(line)


def _write_table(table_path: Path, groups, replication_factor: int) -> None:
    payload = {
        "replication_factor": replication_factor,
        "num_shards": len(groups),
        "addresses": [
            [f"{host}:{port}" for (host, port, _, _) in group]
            for group in groups
        ],
    }
    table_path.write_text(
        json.dumps(payload, indent=2) + "\n", encoding="utf-8"
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "directory", help="store directory holding the shard files"
    )
    parser.add_argument(
        "--shards", type=int, default=3, help="shard count (default: 3)"
    )
    parser.add_argument(
        "--replication-factor",
        type=int,
        default=2,
        help="servers per shard: primary + replicas (default: 2)",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument(
        "--addresses-file",
        default=None,
        help="where to write the address table "
        "(default: <directory>/fabric.json)",
    )
    parser.add_argument(
        "--no-supervise",
        action="store_true",
        help="launch, write the table, and exit (callers own the pids)",
    )
    args = parser.parse_args(argv)
    if args.shards < 1 or args.replication_factor < 1:
        parser.error("--shards and --replication-factor must be >= 1")

    directory = Path(args.directory)
    directory.mkdir(parents=True, exist_ok=True)
    table_path = Path(args.addresses_file or directory / "fabric.json")

    # groups[i] = [(host, port, shard_path, proc), ...], primary first.
    groups = []
    for group_paths in fabric_replica_paths(
        str(directory), args.shards, args.replication_factor
    ):
        group = []
        for shard_path in group_paths:
            proc = _spawn(shard_path, args.host, 0)
            announced = _read_announcement(proc, shard_path)
            group.append(
                (announced["host"], announced["port"], shard_path, proc)
            )
        groups.append(group)
    _write_table(table_path, groups, args.replication_factor)
    total = args.shards * args.replication_factor
    print(f"fabric up: {total} server(s), address table at {table_path}")

    if args.no_supervise:
        return 0

    stopping = False

    def _stop(signum, frame) -> None:
        nonlocal stopping
        stopping = True

    signal.signal(signal.SIGTERM, _stop)
    signal.signal(signal.SIGINT, _stop)

    try:
        while not stopping:
            time.sleep(_POLL_SECONDS)
            for group in groups:
                for member_no, member in enumerate(group):
                    host, port, shard_path, proc = member
                    if proc.poll() is None:
                        continue
                    # Restart on the *same* port so already-connected
                    # clients recover by reconnecting, not by
                    # re-reading the table.
                    print(
                        f"restarting shard server for {shard_path} "
                        f"(exited rc={proc.returncode})"
                    )
                    proc = _spawn(shard_path, host, port)
                    announced = _read_announcement(proc, shard_path)
                    group[member_no] = (
                        announced["host"],
                        announced["port"],
                        shard_path,
                        proc,
                    )
            _write_table(table_path, groups, args.replication_factor)
    finally:
        for group in groups:
            for _, _, _, proc in group:
                if proc.poll() is None:
                    proc.terminate()
        deadline = time.monotonic() + 10
        for group in groups:
            for _, _, _, proc in group:
                try:
                    proc.wait(timeout=max(0.1, deadline - time.monotonic()))
                except subprocess.TimeoutExpired:
                    proc.kill()
        print("fabric stopped")
    return 0


if __name__ == "__main__":
    sys.exit(main())
