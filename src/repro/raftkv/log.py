"""The Raft replicated log.

Entries are 1-indexed, as in the Raft paper; index 0 is the sentinel
"empty log" position with term 0.
"""

from .rpc import LogEntry


class Compacted(IndexError):
    """The requested index was discarded by log compaction."""


class RaftLog:
    """In-memory (simulated-durable) Raft log with prefix compaction.

    ``offset`` is the index of the last entry folded into a snapshot;
    live entries cover ``offset+1 .. last_index``. A fresh log has
    offset 0 with sentinel term 0.
    """

    def __init__(self):
        self._entries = []
        self.offset = 0
        self.offset_term = 0

    def __len__(self):
        return len(self._entries)

    @property
    def last_index(self):
        return self.offset + len(self._entries)

    @property
    def last_term(self):
        return self._entries[-1].term if self._entries else self.offset_term

    def term_at(self, index):
        """Term of the entry at ``index`` (sentinel/snapshot boundary OK)."""
        if index == self.offset:
            return self.offset_term
        if index < self.offset:
            raise Compacted(f"index {index} compacted away (offset {self.offset})")
        if index > self.last_index:
            raise IndexError(f"no log entry at index {index}")
        return self._entries[index - self.offset - 1].term

    def entry_at(self, index):
        if index <= self.offset:
            raise Compacted(f"index {index} compacted away (offset {self.offset})")
        if index > self.last_index:
            raise IndexError(f"no log entry at index {index}")
        return self._entries[index - self.offset - 1]

    def has_entry(self, index):
        return self.offset < index <= self.last_index

    def append(self, term, command):
        """Append a new entry (leader side); returns its index."""
        self._entries.append(LogEntry(term=term, command=command))
        return self.last_index

    def entries_from(self, start, limit=None):
        """Entries at indices >= ``start``, up to ``limit`` of them."""
        if start < 1:
            raise IndexError(f"log indices start at 1, got {start}")
        if start <= self.offset:
            raise Compacted(f"start {start} compacted away (offset {self.offset})")
        chunk = self._entries[start - self.offset - 1 :]
        if limit is not None:
            chunk = chunk[:limit]
        return tuple(chunk)

    def matches(self, index, term):
        """True if the log covers ``index`` with ``term``."""
        if index == 0:
            return True
        if index == self.offset:
            return term == self.offset_term
        return self.has_entry(index) and self.term_at(index) == term

    def splice(self, prev_index, entries):
        """Follower-side append: install ``entries`` after ``prev_index``.

        Deletes conflicting suffixes (same index, different term) per
        the Raft paper's AppendEntries receiver rule 3, but never
        truncates on a mere duplicate — that would roll back entries a
        stale, reordered RPC doesn't know about. Entries at or below the
        compaction offset are already captured by the snapshot and are
        skipped.
        """
        index = prev_index
        for entry in entries:
            index += 1
            if index <= self.offset:
                continue  # covered by the snapshot
            if self.has_entry(index):
                if self.term_at(index) == entry.term:
                    continue  # duplicate of what we already have
                del self._entries[index - self.offset - 1 :]
            self._entries.append(entry)
        return index

    # ------------------------------------------------------------------
    # Compaction
    # ------------------------------------------------------------------

    def compact(self, upto_index):
        """Discard entries up to ``upto_index`` (now held in a snapshot)."""
        if upto_index <= self.offset:
            return
        if upto_index > self.last_index:
            raise IndexError(f"cannot compact beyond last index ({upto_index})")
        boundary_term = self.term_at(upto_index)
        del self._entries[: upto_index - self.offset]
        self.offset = upto_index
        self.offset_term = boundary_term

    def install_snapshot_boundary(self, index, term):
        """Reset the log to start after an installed snapshot."""
        self._entries = []
        self.offset = index
        self.offset_term = term

    def is_up_to_date(self, other_last_index, other_last_term):
        """Raft §5.4.1 election restriction: is the *other* log current?"""
        if other_last_term != self.last_term:
            return other_last_term > self.last_term
        return other_last_index >= self.last_index
