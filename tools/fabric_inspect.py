#!/usr/bin/env python3
"""Inspect a campaign-fabric directory: lease log, shard journals, merge state.

A fabric directory (see src/lpsram/runtime/fabric/fabric.hpp) holds:

    coordinator.journal   lease log: kFabLog* records, journal framing
    shard-N.journal       per-worker campaign journals (task payloads)
    merged.journal        the post-merge campaign journal (when complete)
    worker-N.pid          pidfiles of live (or killed-without-cleanup) workers
    worker-net-N.pid      remote-launcher pidfiles ("<pid> <hostname>") from
                          fabric_worker processes serving a --listen daemon
    connections.status    the coordinator's per-worker transport snapshot,
                          rewritten atomically every 0.25s while it runs
                          (forked and TCP fleets alike)

Everything uses the same record framing as campaign journals —
[u32 length][u32 crc32][u8 type + payload] after the "LPSJRNL1" magic — so
this tool shares journal_inspect.py's replay logic and validation contract
(torn tails are legal crash residue, interior damage is corruption).

Usage:
    fabric_inspect.py status DIR       one-line rollup: leases, tasks, workers
    fabric_inspect.py dump DIR         decode every record of every journal
    fabric_inspect.py connections DIR  per-worker transport state from
                                       connections.status: serving,
                                       disconnected or (forked) exited, peer
                                       address ("forked" for run_fabric
                                       children), active lease, shard bytes
                                       received, heartbeat age, reconnects
    fabric_inspect.py killall DIR      SIGKILL every pidfile'd worker on THIS
                                       host (the operator's big red button;
                                       mirrors lpsram::fabric::
                                       kill_all_workers). Workers it cannot
                                       signal — another host's pidfile, or a
                                       pid that is already gone — are
                                       reported unreachable and their stale
                                       pidfiles removed; neither is an error.

Exit status: 0 on success (status/dump: every journal valid; connections:
snapshot parsed; killall: always), 1 when any journal or snapshot is corrupt
or unreadable, 2 on usage error.

CI uploads fabric-journals/ when the fabric suite fails; `status` on the
failing directory shows which side of the coordinator/worker contract broke.
"""

import os
import signal
import socket
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from journal_inspect import Corrupt, Payload, replay  # noqa: E402

# Lease-log record types (src/lpsram/runtime/fabric/lease_core.hpp).
FABLOG_NAMES = {
    1: "manifest",
    2: "lease_issued",
    3: "lease_expired",
    4: "lease_completed",
    5: "task_committed",
    6: "worker_dead",
    7: "merged",
}


def describe_fablog(rtype, payload):
    """One-line human decoding of a lease-log record."""
    try:
        p = Payload(payload)
        if rtype == 1:
            return "salt=%016x fp=%016x tasks=%d span=%d" % (
                p.u64(), p.u64(), p.u64(), p.u64())
        if rtype == 2:
            return "lease=%d worker=%d grant#%d" % (p.u64(), p.u32(), p.u64())
        if rtype in (3, 4):
            return "lease=%d" % p.u64()
        if rtype == 5:
            return "index=%d key=%016x" % (p.u64(), p.u64())
        if rtype == 6:
            return "worker=%d" % p.u32()
        if rtype == 7:
            return "tasks=%d duplicates=%d" % (p.u64(), p.u64())
    except Corrupt as err:
        return "UNDECODABLE (%s)" % err
    return "%d payload bytes" % len(payload)


def read_journal(path):
    """Returns (records, torn) or raises Corrupt/OSError."""
    with open(path, "rb") as f:
        data = f.read()
    records, _, torn = replay(data)
    return records, torn


def shard_paths(directory):
    out = []
    for name in sorted(os.listdir(directory)):
        if name.startswith("shard-") and name.endswith(".journal"):
            out.append(os.path.join(directory, name))
    return out


def pid_files(directory):
    out = []
    for name in sorted(os.listdir(directory)):
        if name.startswith("worker-") and name.endswith(".pid"):
            out.append(os.path.join(directory, name))
    return out


def lease_log_rollup(records):
    """Aggregates a lease-log replay into the coordinator's view."""
    state = {
        "manifest": None,
        "issued": 0,
        "expired": 0,
        "completed": set(),
        "committed": set(),
        "dead_workers": set(),
        "merged": None,
    }
    for _, rtype, payload in records:
        p = Payload(payload)
        if rtype == 1:
            state["manifest"] = (p.u64(), p.u64(), p.u64(), p.u64())
        elif rtype == 2:
            state["issued"] += 1
        elif rtype == 3:
            state["expired"] += 1
        elif rtype == 4:
            state["completed"].add(p.u64())
        elif rtype == 5:
            state["committed"].add(p.u64())
        elif rtype == 6:
            state["dead_workers"].add(p.u32())
        elif rtype == 7:
            state["merged"] = (p.u64(), p.u64())
    return state


def cmd_status(directory):
    ok = True
    log_path = os.path.join(directory, "coordinator.journal")
    if os.path.exists(log_path):
        try:
            records, torn = read_journal(log_path)
            s = lease_log_rollup(records)
            if s["manifest"]:
                salt, fp, tasks, span = s["manifest"]
                print("lease log: sweep salt=%016x fp=%016x, %d tasks in "
                      "spans of %d%s" % (salt, fp, tasks, span,
                                         " (torn tail)" if torn else ""))
            print("  %d grants, %d expiries, %d leases completed, %d tasks "
                  "committed, %d worker deaths" %
                  (s["issued"], s["expired"], len(s["completed"]),
                   len(s["committed"]), len(s["dead_workers"])))
            if s["merged"]:
                print("  merged: %d tasks, %d duplicates reconciled"
                      % s["merged"])
        except (Corrupt, OSError) as err:
            print("lease log: CORRUPT/unreadable: %s" % err)
            ok = False
    else:
        print("lease log: absent (no coordinator has run here)")

    for path in shard_paths(directory):
        try:
            records, torn = read_journal(path)
            tasks = sum(1 for _, t, _ in records if t == 2)
            print("%s: %d committed task(s)%s" %
                  (os.path.basename(path), tasks,
                   " (torn tail — crash residue, truncated on resume)"
                   if torn else ""))
        except (Corrupt, OSError) as err:
            print("%s: CORRUPT/unreadable: %s" % (os.path.basename(path), err))
            ok = False

    merged = os.path.join(directory, "merged.journal")
    if os.path.exists(merged):
        try:
            records, torn = read_journal(merged)
            tasks = sum(1 for _, t, _ in records if t == 2)
            print("merged.journal: %d task(s)%s" %
                  (tasks, " (torn tail)" if torn else ""))
        except (Corrupt, OSError) as err:
            print("merged.journal: CORRUPT/unreadable: %s" % err)
            ok = False
    else:
        print("merged.journal: absent (sweep incomplete or drained)")

    pids = pid_files(directory)
    if pids:
        print("pidfiles: %s" % ", ".join(os.path.basename(p) for p in pids))
    return ok


def cmd_dump(directory):
    ok = True
    log_path = os.path.join(directory, "coordinator.journal")
    if os.path.exists(log_path):
        print("== coordinator.journal")
        try:
            records, torn = read_journal(log_path)
            for offset, rtype, payload in records:
                name = FABLOG_NAMES.get(rtype, "type%d" % rtype)
                print("  @%-8d %-15s %s"
                      % (offset, name, describe_fablog(rtype, payload)))
            if torn:
                print("  (torn tail)")
        except (Corrupt, OSError) as err:
            print("  CORRUPT/unreadable: %s" % err)
            ok = False

    # Shards and the merged journal are plain campaign journals; reuse the
    # campaign inspector wholesale.
    from journal_inspect import inspect
    for path in shard_paths(directory):
        ok = inspect(path, dump=True) and ok
    merged = os.path.join(directory, "merged.journal")
    if os.path.exists(merged):
        ok = inspect(merged, dump=True) and ok
    return ok


# connections.status format (NetServer::write_status, net/server.cpp):
#     # lpsram fabric-net connections v1
#     epoch <wall-clock seconds, %.3f>
#     listen <port, 0 for a forked fleet with no listener>
#     worker <id> state=<serving|disconnected|exited> \
#         addr=<host:port|forked|-> \
#         lease=<n|-> have=<bytes> heartbeat_age=<s|-> reconnects=<n>
CONNECTIONS_HEADER = "# lpsram fabric-net connections v1"


def parse_connections(text):
    """Returns (epoch, listen_port, workers) or raises Corrupt.

    Each worker is a dict of the line's key=value fields plus its id; '-'
    stays the string '-' so callers can render "no lease" / "no heartbeat
    yet" without inventing sentinel numbers.
    """
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0].strip() != CONNECTIONS_HEADER:
        raise Corrupt("not a fabric-net connections snapshot (bad header)")
    epoch, listen_port, workers = None, None, []
    for line in lines[1:]:
        fields = line.split()
        try:
            if fields[0] == "epoch":
                epoch = float(fields[1])
            elif fields[0] == "listen":
                listen_port = int(fields[1])
            elif fields[0] == "worker":
                worker = {"id": int(fields[1])}
                for pair in fields[2:]:
                    key, _, value = pair.partition("=")
                    worker[key] = value
                workers.append(worker)
            else:
                raise Corrupt("unknown connections line: %r" % line)
        except (IndexError, ValueError) as err:
            raise Corrupt("bad connections line %r (%s)" % (line, err))
    if epoch is None or listen_port is None:
        raise Corrupt("connections snapshot missing epoch/listen header")
    return epoch, listen_port, workers


def cmd_connections(directory):
    path = os.path.join(directory, "connections.status")
    if not os.path.exists(path):
        print("connections.status: absent (no coordinator has run here)")
        return True
    try:
        with open(path) as f:
            epoch, listen_port, workers = parse_connections(f.read())
    except (Corrupt, OSError) as err:
        print("connections.status: CORRUPT/unreadable: %s" % err)
        return False
    age = time.time() - epoch
    # The server rewrites the snapshot every 0.25s; a stale one means the
    # coordinator exited (cleanly or not) and the states below are history.
    print("%s, snapshot %.1fs old%s"
          % ("listening on port %d" % listen_port if listen_port
             else "forked fleet (no listener)", age,
             " (STALE — coordinator no longer running?)" if age > 5.0 else ""))
    if not workers:
        print("no workers have ever connected")
        return True
    for w in workers:
        hb = w.get("heartbeat_age", "-")
        print("worker %d: %-12s addr=%s lease=%s shard_bytes=%s "
              "heartbeat_age=%s reconnects=%s"
              % (w["id"], w.get("state", "?"), w.get("addr", "-"),
                 w.get("lease", "-"), w.get("have", "?"),
                 hb if hb == "-" else hb + "s", w.get("reconnects", "0")))
    return True


def cmd_killall(directory):
    killed, unreachable = 0, 0
    local_host = socket.gethostname()
    for path in pid_files(directory):
        name = os.path.basename(path)
        # worker-N.pid holds "<pid>"; worker-net-N.pid (remote launcher)
        # holds "<pid> <hostname>". Both parse as pid + optional host.
        try:
            with open(path) as f:
                fields = f.read().split()
            pid = int(fields[0])
            host = fields[1] if len(fields) > 1 else local_host
        except (OSError, ValueError, IndexError) as err:
            print("%s: unreadable pidfile (%s)" % (path, err))
            continue
        if host != local_host:
            # A remote launcher's worker: we cannot signal across hosts.
            # Report it and drop the pidfile so repeated killalls converge;
            # the operator runs killall on that host (or lets the lease
            # timeout reclaim its tasks).
            print("pid %d on %s (%s): unreachable from %s — removing "
                  "stale pidfile" % (pid, host, name, local_host))
            unreachable += 1
        elif pid > 1:
            try:
                os.kill(pid, signal.SIGKILL)
                print("killed %d (%s)" % (pid, name))
                killed += 1
            except ProcessLookupError:
                print("pid %d (%s): already gone — removing stale pidfile"
                      % (pid, name))
                unreachable += 1
            except OSError as err:
                print("pid %d (%s): %s" % (pid, name, err))
                unreachable += 1
        try:
            os.remove(path)
        except OSError:
            pass
    print("%d worker(s) signalled, %d unreachable/stale" %
          (killed, unreachable))
    return True


def main(argv):
    commands = {"status": cmd_status, "dump": cmd_dump,
                "connections": cmd_connections, "killall": cmd_killall}
    if len(argv) != 3 or argv[1] not in commands:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    command, directory = argv[1], argv[2]
    if not os.path.isdir(directory):
        print("%s: not a directory" % directory, file=sys.stderr)
        return 2
    handler = commands[command]
    return 0 if handler(directory) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
