#!/usr/bin/env python3
"""Dump / validate lpsram campaign journal files.

The journal format (see src/lpsram/runtime/journal.hpp):

    [8-byte magic "LPSJRNL1"]
    repeated records: [u32 length][u32 crc32][u8 type + payload]

where `length` counts the type byte plus the payload, `crc32` is zlib's
CRC-32 over those `length` bytes, and all integers are little-endian.
Doubles are raw IEEE-754 bits.

Validation mirrors the C++ replay contract exactly: a torn tail (partial
final record) is legal — it is what a crash leaves behind — while any
interior damage (bad magic, impossible length, checksum mismatch) makes
the file corrupt.

Usage:
    journal_inspect.py FILE...          validate, print a summary per file
    journal_inspect.py --dump FILE...   also decode and print every record

Exit status: 0 when every file is valid (torn tails allowed and reported),
1 when any file is corrupt or unreadable, 2 on usage error.

CI runs this over the kill-replay test's journal artifacts
(build*/tests/campaign-journals/) when the campaign suite fails, so the
torn/corrupt state of each journal is visible right in the job log.
"""

import struct
import sys
import zlib

MAGIC = b"LPSJRNL1"
MAX_RECORD_BYTES = 16 << 20  # kJournalMaxRecordBytes

# Type 3 is only found in older journals, which journaled the solve cache's
# operating points; no writer emits it now and replay never uses it.
RECORD_NAMES = {
    1: "manifest",
    2: "task_done",
    3: "op_point (legacy, ignored)",
}


class Corrupt(Exception):
    """Interior damage: the C++ replay would throw JournalCorrupt."""


def replay(data):
    """Yields (offset, type, payload) per intact record.

    Returns via StopIteration value: (valid_bytes, torn_tail). Raises
    Corrupt on interior damage, mirroring lpsram::replay_journal.
    """
    records = []
    if not data:
        return records, 0, False
    if len(data) < len(MAGIC):
        if MAGIC.startswith(data):
            return records, 0, True  # torn creation
        raise Corrupt("bad magic")
    if data[: len(MAGIC)] != MAGIC:
        raise Corrupt("bad magic")

    pos = len(MAGIC)
    valid = pos
    torn = False
    while pos < len(data):
        remaining = len(data) - pos
        if remaining < 8:
            torn = True
            break
        length, crc = struct.unpack_from("<II", data, pos)
        if length == 0 or length > MAX_RECORD_BYTES:
            raise Corrupt(
                "impossible record length %d at offset %d" % (length, pos)
            )
        if remaining - 8 < length:
            torn = True
            break
        body = data[pos + 8 : pos + 8 + length]
        if zlib.crc32(body) & 0xFFFFFFFF != crc:
            raise Corrupt("checksum mismatch at offset %d" % pos)
        records.append((pos, body[0], body[1:]))
        pos += 8 + length
        valid = pos
    return records, valid, torn


class Payload:
    """Little-endian cursor over a record payload (PayloadReader mirror)."""

    def __init__(self, data):
        self.data = data
        self.pos = 0

    def _take(self, n):
        if len(self.data) - self.pos < n:
            raise Corrupt("short payload read")
        chunk = self.data[self.pos : self.pos + n]
        self.pos += n
        return chunk

    def u8(self):
        return self._take(1)[0]

    def u32(self):
        return struct.unpack("<I", self._take(4))[0]

    def u64(self):
        return struct.unpack("<Q", self._take(8))[0]

    def f64(self):
        return struct.unpack("<d", self._take(8))[0]

    def vec_f64(self):
        n = self.u32()
        return [self.f64() for _ in range(n)]


def describe(rtype, payload):
    """One-line human decoding of the known campaign record types."""
    try:
        p = Payload(payload)
        if rtype == 1:  # manifest
            return "salt=%016x fingerprint=%016x" % (p.u64(), p.u64())
        if rtype == 2:  # task_done
            key = p.u64()
            return "task=%016x payload=%d bytes" % (key, len(payload) - 8)
        if rtype == 3:  # op_point (legacy)
            circuit, task = p.u64(), p.u64()
            defect = p.u32()
            r = p.f64()
            x = p.vec_f64()
            return "circuit=%016x task=%016x defect=%d r=%.6g |x|=%d" % (
                circuit,
                task,
                defect,
                r,
                len(x),
            )
    except Corrupt as err:
        return "UNDECODABLE (%s)" % err
    return "%d payload bytes" % len(payload)


def inspect(path, dump):
    try:
        with open(path, "rb") as f:
            data = f.read()
    except OSError as err:
        print("%s: unreadable: %s" % (path, err))
        return False

    try:
        records, valid, torn = replay(data)
    except Corrupt as err:
        print("%s: CORRUPT: %s" % (path, err))
        return False

    counts = {}
    for _, rtype, _ in records:
        counts[rtype] = counts.get(rtype, 0) + 1
    breakdown = ", ".join(
        "%d %s" % (n, RECORD_NAMES.get(t, "type%d" % t))
        for t, n in sorted(counts.items())
    )
    state = "torn tail (%d trailing bytes dropped)" % (len(data) - valid) \
        if torn else "clean"
    print(
        "%s: valid, %s — %d records (%s), %d/%d bytes intact"
        % (path, state, len(records), breakdown or "empty", valid, len(data))
    )
    if dump:
        for offset, rtype, payload in records:
            name = RECORD_NAMES.get(rtype, "type%d" % rtype)
            print(
                "  @%-8d %-9s %s" % (offset, name, describe(rtype, payload))
            )
    return True


def main(argv):
    args = argv[1:]
    dump = False
    if args and args[0] == "--dump":
        dump = True
        args = args[1:]
    if not args or any(a.startswith("-") for a in args):
        print(__doc__.strip(), file=sys.stderr)
        return 2
    ok = True
    for path in args:
        ok = inspect(path, dump) and ok
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
