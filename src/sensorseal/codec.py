"""One bounds-checked reader for every byte layout that arrives from outside.

Every decoder of untrusted bytes reads through a `Cursor`; a short read,
an overrunning length, trailing bytes or a value outside its listed
range raise the one error, `FormatError`.
"""

from __future__ import annotations

from struct import Struct


class FormatError(ValueError):
    """Bytes that do not decode to exactly one canonical value; `record` is
    the 1-based ordinal of the first record involved, when one is known."""

    def __init__(self, message: str, record: int | None = None):
        super().__init__(message)
        self.record = record


_LP = Struct(">H")


def listed(values: dict, byte: int, what: str):
    """The value an enum byte stands for; any byte not listed is an error."""
    try:
        return values[byte]
    except KeyError:
        raise FormatError(f"bad {what} byte {byte:#x}") from None


class Cursor:
    """A read position over bytes; every read is checked against the end."""

    __slots__ = ("buf", "pos", "end")

    def __init__(self, buf: bytes):
        self.buf = buf
        self.pos = 0
        self.end = len(buf)

    def take(self, n: int) -> bytes:
        pos = self.pos
        end = pos + n
        if end > self.end:
            raise FormatError(f"{n} bytes needed at offset {pos}, {self.end - pos} left")
        self.pos = end
        return self.buf[pos:end]

    def unpack(self, layout: Struct) -> tuple:
        """The next fixed-width fields, as `layout` lays them out."""
        pos = self.pos
        end = pos + layout.size
        if end > self.end:
            raise FormatError(f"{layout.size} bytes needed at offset {pos}, {self.end - pos} left")
        self.pos = end
        return layout.unpack_from(self.buf, pos)

    def lp(self) -> bytes:
        """A 2-byte big-endian length prefix and the bytes it counts."""
        pos = self.pos + 2
        if pos > self.end:
            raise FormatError(f"length prefix cut off at offset {pos - 2}")
        end = pos + _LP.unpack_from(self.buf, pos - 2)[0]
        if end > self.end:
            raise FormatError(f"length prefix at offset {pos - 2} overruns the end")
        self.pos = end
        return self.buf[pos:end]

    def done(self, what: str = "record") -> None:
        """Reject bytes left after the last field of `what`."""
        if self.pos != self.end:
            raise FormatError(f"{what} has {self.end - self.pos} trailing bytes")
