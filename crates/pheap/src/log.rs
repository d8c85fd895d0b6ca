//! A torn-bit raw log, after Mnemosyne's: a circular region of 64-bit
//! words, each reserving its top bit as a *torn bit* whose expected
//! polarity flips on every pass around the circle. Recovery scans from
//! the persistent tail and stops at the first word whose torn bit does
//! not match — detecting both torn (partially durable) records and stale
//! words from a previous pass, with no checksums and no read-modify-write
//! of log metadata on the append path.


use crate::mem::PersistentMemory;

/// Kinds of log record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecordKind {
    /// A word write: `addr` held `value` (undo logs store the *old*
    /// value; redo logs store the *new* one).
    Write,
    /// Transaction commit marker.
    Commit,
    /// Transaction abort marker.
    Abort,
    /// Epoch group-commit marker: every transaction with a txid at or
    /// below this record's `txid` is durably committed. One fenced
    /// marker covers a whole durability epoch.
    EpochCommit,
    /// Two-phase-commit PREPARED marker: the write records logged under
    /// this record's `txid` (a global transaction id) are durable and
    /// the shard is bound by the coordinator's decision. Without a
    /// later Commit or Abort marker the transaction is *in doubt*:
    /// recovery presumes abort unless the coordinator's decision log
    /// says otherwise.
    Prepare,
    /// Group-decided commit: one fenced record covering a whole batch of
    /// global transaction ids. On NVRAM the record is variable-length —
    /// a header word carrying the member count followed by one packed
    /// `(generation, gtxid)` word per member (see [`pack_group_entry`]).
    /// Recovery expands an intact group record into one `GroupDecision`
    /// [`LogRecord`] per member (`txid` = gtxid, `addr` = generation);
    /// a torn record — any prefix of its words — yields *none* of its
    /// members, which is exactly presumed-abort for the whole group.
    GroupDecision,
    /// Decision-settled marker: every participant of global transaction
    /// `txid` has written its phase-2 marker, so the decision record is
    /// dead weight and recovery-time compaction may drop it.
    Settle,
}

impl RecordKind {
    fn code(self) -> u64 {
        match self {
            RecordKind::Write => 0,
            RecordKind::Commit => 1,
            RecordKind::Abort => 2,
            RecordKind::EpochCommit => 3,
            RecordKind::Prepare => 4,
            RecordKind::GroupDecision => 5,
            RecordKind::Settle => 6,
        }
    }

    fn from_code(code: u64) -> Option<Self> {
        match code {
            0 => Some(RecordKind::Write),
            1 => Some(RecordKind::Commit),
            2 => Some(RecordKind::Abort),
            3 => Some(RecordKind::EpochCommit),
            4 => Some(RecordKind::Prepare),
            5 => Some(RecordKind::GroupDecision),
            6 => Some(RecordKind::Settle),
            _ => None,
        }
    }

    /// Number of log words this kind occupies (header + payload).
    fn words(self) -> u64 {
        match self {
            RecordKind::Write => 4,
            RecordKind::Commit
            | RecordKind::Abort
            | RecordKind::EpochCommit
            | RecordKind::Prepare
            | RecordKind::Settle => 1,
            // Variable length; appended via `append_group_decision`,
            // never through the fixed-size `append` path.
            RecordKind::GroupDecision => {
                unreachable!("group decisions are appended via append_group_decision")
            }
        }
    }
}

/// One decoded log record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LogRecord {
    /// Record kind.
    pub kind: RecordKind,
    /// Transaction id.
    pub txid: u64,
    /// Target address (zero for commit/abort markers).
    pub addr: u64,
    /// Logged value (old value for undo, new for redo; zero for
    /// markers).
    pub value: u64,
}

impl LogRecord {
    /// A write record.
    #[must_use]
    pub fn write(txid: u64, addr: u64, value: u64) -> Self {
        LogRecord {
            kind: RecordKind::Write,
            txid,
            addr,
            value,
        }
    }

    /// A commit marker.
    #[must_use]
    pub fn commit(txid: u64) -> Self {
        LogRecord {
            kind: RecordKind::Commit,
            txid,
            addr: 0,
            value: 0,
        }
    }

    /// An abort marker.
    #[must_use]
    pub fn abort(txid: u64) -> Self {
        LogRecord {
            kind: RecordKind::Abort,
            txid,
            addr: 0,
            value: 0,
        }
    }

    /// An epoch group-commit marker covering every txid up to and
    /// including `max_txid`.
    #[must_use]
    pub fn epoch_commit(max_txid: u64) -> Self {
        LogRecord {
            kind: RecordKind::EpochCommit,
            txid: max_txid,
            addr: 0,
            value: 0,
        }
    }

    /// A two-phase-commit PREPARED marker for global transaction
    /// `gtxid`.
    #[must_use]
    pub fn prepare(gtxid: u64) -> Self {
        LogRecord {
            kind: RecordKind::Prepare,
            txid: gtxid,
            addr: 0,
            value: 0,
        }
    }

    /// A decision-settled marker for global transaction `gtxid`.
    #[must_use]
    pub fn settle(gtxid: u64) -> Self {
        LogRecord {
            kind: RecordKind::Settle,
            txid: gtxid,
            addr: 0,
            value: 0,
        }
    }

    /// The decoded form of one member of a [`RecordKind::GroupDecision`]
    /// record: `txid` is the member gtxid, `addr` its coordinator
    /// generation, `value` its position within the group.
    #[must_use]
    pub fn group_member(gtxid: u64, generation: u64, position: u64) -> Self {
        LogRecord {
            kind: RecordKind::GroupDecision,
            txid: gtxid,
            addr: generation,
            value: position,
        }
    }
}

/// Bit position of the coordinator generation inside a packed group-
/// decision entry word: bits `[50, 63)` hold the generation, bits
/// `[0, 50)` the gtxid. Both fields share one 63-bit torn-log payload
/// word so a whole batch member costs exactly one log word.
pub const GROUP_ENTRY_GEN_SHIFT: u64 = 50;
const GROUP_ENTRY_GTXID_MASK: u64 = (1 << GROUP_ENTRY_GEN_SHIFT) - 1;
/// Generations fit in 13 bits (the payload bits above the gtxid field).
pub const GROUP_ENTRY_GEN_MAX: u64 = (1 << (63 - GROUP_ENTRY_GEN_SHIFT)) - 1;

/// Packs one group-decision member into a single log payload word.
///
/// # Panics
///
/// Panics when `gtxid` or `generation` overflow their fields.
#[must_use]
pub fn pack_group_entry(generation: u64, gtxid: u64) -> u64 {
    assert!(gtxid <= GROUP_ENTRY_GTXID_MASK, "gtxid overflows entry word");
    assert!(generation <= GROUP_ENTRY_GEN_MAX, "generation overflows entry word");
    (generation << GROUP_ENTRY_GEN_SHIFT) | gtxid
}

/// Unpacks a group-decision entry word into `(generation, gtxid)`.
#[must_use]
pub fn unpack_group_entry(word: u64) -> (u64, u64) {
    (word >> GROUP_ENTRY_GEN_SHIFT, word & GROUP_ENTRY_GTXID_MASK)
}

const TORN_BIT: u64 = 1 << 63;
const PAYLOAD_MASK: u64 = TORN_BIT - 1;

/// The circular torn-bit log. The struct itself is volatile writer state;
/// the log words live in a [`PersistentMemory`] range and the tail
/// pointer in one persistent header word, so recovery needs only the
/// durable image.
///
/// # Examples
///
/// ```
/// use wsp_pheap::{LogRecord, PersistentMemory, TornLog};
/// use wsp_units::ByteSize;
///
/// let mut mem = PersistentMemory::new(ByteSize::kib(64));
/// let mut log = TornLog::new(4096, ByteSize::kib(8), 64);
/// log.initialize(&mut mem);
/// log.append(&mut mem, &LogRecord::write(1, 0x100, 42), true);
/// log.append(&mut mem, &LogRecord::commit(1), true);
/// mem.sfence();
/// let records = TornLog::recover(mem.durable_bytes(), 4096, ByteSize::kib(8), 64);
/// assert_eq!(records.len(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct TornLog {
    /// Byte address of word 0.
    base: u64,
    /// Capacity in words.
    cap_words: u64,
    /// Next word to write (index in `0..cap_words`).
    head: u64,
    /// Torn-bit polarity for words written on the current pass.
    polarity: bool,
    /// Oldest live word (start of recovery scan).
    tail: u64,
    /// Polarity that was current when the tail was set.
    tail_polarity: bool,
    /// Byte address of the persistent tail word.
    tail_ptr_addr: u64,
}

impl TornLog {
    /// Creates writer state for a log occupying `[base, base + capacity)`
    /// with its persistent tail pointer at `tail_ptr_addr`.
    ///
    /// # Panics
    ///
    /// Panics unless `base` and `capacity` are 8-byte aligned and the log
    /// holds at least 8 words.
    #[must_use]
    pub fn new(base: u64, capacity: wsp_units::ByteSize, tail_ptr_addr: u64) -> Self {
        assert_eq!(base % 8, 0, "log base must be 8-byte aligned");
        assert_eq!(capacity.as_u64() % 8, 0, "log capacity must be 8-byte aligned");
        let cap_words = capacity.as_u64() / 8;
        assert!(cap_words >= 8, "log must hold at least 8 words");
        TornLog {
            base,
            cap_words,
            head: 0,
            polarity: true,
            tail: 0,
            tail_polarity: true,
            tail_ptr_addr,
        }
    }

    /// Writes the initial (empty) persistent tail pointer. Call once when
    /// creating a fresh heap.
    pub fn initialize(&self, mem: &mut PersistentMemory) {
        mem.ntstore_u64(self.tail_ptr_addr, Self::pack_tail(0, true));
        mem.sfence();
    }

    fn pack_tail(tail: u64, polarity: bool) -> u64 {
        (tail << 1) | u64::from(polarity)
    }

    fn unpack_tail(word: u64) -> (u64, bool) {
        (word >> 1, word & 1 == 1)
    }

    /// Words available before the head would collide with the tail.
    #[must_use]
    pub fn free_words(&self) -> u64 {
        if self.head >= self.tail {
            // Free space wraps; keep one word of slack so head==tail
            // always means "empty".
            self.cap_words - (self.head - self.tail) - 1
        } else {
            self.tail - self.head - 1
        }
    }

    /// Total words the log can hold (sizing bound for batched appends,
    /// e.g. an epoch seal's coalesced record set).
    #[must_use]
    pub fn capacity_words(&self) -> u64 {
        self.cap_words
    }

    /// True when less than a quarter of the log remains — time for the
    /// owner to truncate (with enough headroom that a long transaction
    /// never hits the hard full condition mid-flight).
    #[must_use]
    pub fn needs_truncation(&self) -> bool {
        self.free_words() < self.cap_words / 4
    }

    fn push_word(&mut self, mem: &mut PersistentMemory, payload: u64, flush: bool) {
        debug_assert_eq!(payload & TORN_BIT, 0, "payload must fit 63 bits");
        let word = payload | if self.polarity { TORN_BIT } else { 0 };
        // `head` stays below `cap_words`: no wrap-around division here.
        let addr = self.base + self.head * 8;
        if flush {
            mem.ntstore_u64(addr, word);
        } else {
            mem.write_u64(addr, word);
        }
        self.head += 1;
        if self.head == self.cap_words {
            self.head = 0;
            self.polarity = !self.polarity;
        }
    }

    /// Appends a record. With `flush` the words go out as non-temporal
    /// stores (durable at the next fence — the caller fences at commit);
    /// without it they are ordinary cached stores (the flush-on-fail
    /// configurations).
    ///
    /// # Panics
    ///
    /// Panics if the log is full; the owner must truncate first (checked
    /// via [`TornLog::needs_truncation`]).
    pub fn append(&mut self, mem: &mut PersistentMemory, record: &LogRecord, flush: bool) {
        let words = record.kind.words();
        assert!(
            self.free_words() >= words,
            "log full: truncation was not performed in time"
        );
        let header = (record.txid << 8) | record.kind.code();
        self.push_word(mem, header, flush);
        if record.kind == RecordKind::Write {
            self.push_word(mem, record.addr, flush);
            self.push_word(mem, record.value & 0xffff_ffff, flush);
            self.push_word(mem, record.value >> 32, flush);
        }
    }

    /// Appends one group-decision record covering `entries` — packed
    /// `(generation, gtxid)` words built with [`pack_group_entry`]. The
    /// record is `1 + entries.len()` log words: a header carrying the
    /// member count, then one word per member. All words go out in one
    /// burst; the caller fences once afterwards, which is the whole
    /// point — N decisions, one fence.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is empty or the log lacks room; the owner
    /// must truncate first.
    pub fn append_group_decision(
        &mut self,
        mem: &mut PersistentMemory,
        entries: &[u64],
        flush: bool,
    ) {
        let count = entries.len() as u64;
        assert!(count > 0, "a group decision must cover at least one gtxid");
        assert!(
            self.free_words() > count,
            "log full: truncation was not performed in time"
        );
        let header = (count << 8) | RecordKind::GroupDecision.code();
        self.push_word(mem, header, flush);
        for &entry in entries {
            self.push_word(mem, entry, flush);
        }
    }

    /// Crash-emulation variant of [`TornLog::append_group_decision`]:
    /// only the first `durable` words of the record (header first, then
    /// entries) reach NVRAM before the fence — the power failed mid-
    /// burst. Recovery must treat any strict prefix as a torn record and
    /// presume abort for every member. With `durable == entries.len() + 1`
    /// the record is complete and fenced, the all-or-nothing other edge.
    pub fn append_group_decision_torn(
        &mut self,
        mem: &mut PersistentMemory,
        entries: &[u64],
        durable: usize,
    ) {
        assert!(!entries.is_empty(), "a group decision must cover at least one gtxid");
        assert!(durable <= entries.len() + 1, "record is only {} words", entries.len() + 1);
        let header = ((entries.len() as u64) << 8) | RecordKind::GroupDecision.code();
        for &payload in std::iter::once(&header).chain(entries).take(durable) {
            self.push_word(mem, payload, true);
        }
        mem.sfence();
    }

    /// Truncates the log: everything before the current head is dead.
    /// With `flush`, the new tail pointer is made durable immediately
    /// (non-temporal store + fence).
    pub fn truncate(&mut self, mem: &mut PersistentMemory, flush: bool) {
        let mark = self.mark();
        self.truncate_to(mem, mark, flush);
    }

    /// The current append position (head index plus torn-bit polarity):
    /// a truncation point that can be captured before further appends
    /// and handed back to [`TornLog::truncate_to`].
    #[must_use]
    pub fn mark(&self) -> (u64, bool) {
        (self.head, self.polarity)
    }

    /// Truncates to a previously captured [`TornLog::mark`]: every word
    /// before the mark is dead, words appended after it stay live. Lets
    /// an owner re-append records it must preserve *before* publishing
    /// the new tail, so no crash point loses them.
    pub fn truncate_to(&mut self, mem: &mut PersistentMemory, mark: (u64, bool), flush: bool) {
        self.tail = mark.0;
        self.tail_polarity = mark.1;
        let packed = Self::pack_tail(self.tail, self.tail_polarity);
        if flush {
            mem.ntstore_u64(self.tail_ptr_addr, packed);
            mem.sfence();
        } else {
            mem.write_u64(self.tail_ptr_addr, packed);
        }
    }

    /// Scans a durable image and returns every intact record from the
    /// persistent tail up to the first torn or stale word.
    #[must_use]
    pub fn recover(
        image: &[u8],
        base: u64,
        capacity: wsp_units::ByteSize,
        tail_ptr_addr: u64,
    ) -> Vec<LogRecord> {
        let cap_words = capacity.as_u64() / 8;
        let word_at = |index: u64| -> u64 {
            // The scan wraps `index` itself; only a corrupt tail pointer
            // can start it out of range, so skip the division otherwise.
            let slot = if index < cap_words {
                index
            } else {
                index % cap_words
            };
            let addr = (base + slot * 8) as usize;
            u64::from_le_bytes(image[addr..addr + 8].try_into().expect("aligned read"))
        };
        let (tail, tail_polarity) =
            Self::unpack_tail(u64::from_le_bytes(
                image[tail_ptr_addr as usize..tail_ptr_addr as usize + 8]
                    .try_into()
                    .expect("aligned read"),
            ));

        let mut records = Vec::new();
        let mut index = tail;
        let mut polarity = tail_polarity;
        let mut consumed = 0u64;
        let next = |index: &mut u64, polarity: &mut bool| {
            *index += 1;
            if *index == cap_words {
                *index = 0;
                *polarity = !*polarity;
            }
        };
        'scan: while consumed < cap_words {
            let header = word_at(index);
            if (header & TORN_BIT != 0) != polarity {
                break;
            }
            let payload = header & PAYLOAD_MASK;
            let Some(kind) = RecordKind::from_code(payload & 0xff) else {
                break;
            };
            let txid = payload >> 8;
            let mut addr = 0u64;
            let mut value = 0u64;
            if kind == RecordKind::GroupDecision {
                // Variable-length record: `txid` is the member count and
                // each member is one packed entry word. Any torn word —
                // including a torn header already caught above — drops
                // the whole record: no member of a partially durable
                // group is ever considered decided (presumed abort).
                let count = txid;
                if count == 0 || count >= cap_words {
                    break; // implausible count: treat as torn
                }
                let mut members = Vec::with_capacity(count as usize);
                let mut scratch_index = index;
                let mut scratch_polarity = polarity;
                for position in 0..count {
                    next(&mut scratch_index, &mut scratch_polarity);
                    let w = word_at(scratch_index);
                    if (w & TORN_BIT != 0) != scratch_polarity {
                        break 'scan; // torn group record
                    }
                    let (generation, gtxid) = unpack_group_entry(w & PAYLOAD_MASK);
                    members.push(LogRecord::group_member(gtxid, generation, position));
                }
                records.extend(members);
                index = scratch_index;
                polarity = scratch_polarity;
                consumed += count;
                next(&mut index, &mut polarity);
                consumed += 1;
                continue 'scan;
            }
            if kind == RecordKind::Write {
                let mut parts = [0u64; 3];
                let mut scratch_index = index;
                let mut scratch_polarity = polarity;
                for part in &mut parts {
                    next(&mut scratch_index, &mut scratch_polarity);
                    let w = word_at(scratch_index);
                    if (w & TORN_BIT != 0) != scratch_polarity {
                        break 'scan; // torn record
                    }
                    *part = w & PAYLOAD_MASK;
                }
                addr = parts[0];
                value = parts[1] | (parts[2] << 32);
                index = scratch_index;
                polarity = scratch_polarity;
                consumed += 3;
            }
            records.push(LogRecord {
                kind,
                txid,
                addr,
                value,
            });
            next(&mut index, &mut polarity);
            consumed += 1;
        }
        records
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wsp_units::ByteSize;

    const BASE: u64 = 4096;
    const CAP: ByteSize = ByteSize::new(512); // 64 words
    const TAIL_PTR: u64 = 64;

    fn fresh() -> (PersistentMemory, TornLog) {
        let mut mem = PersistentMemory::new(ByteSize::kib(64));
        let log = TornLog::new(BASE, CAP, TAIL_PTR);
        log.initialize(&mut mem);
        (mem, log)
    }

    fn recover_from(mem: PersistentMemory, fof: bool) -> Vec<LogRecord> {
        let image = mem.crash(fof);
        TornLog::recover(&image, BASE, CAP, TAIL_PTR)
    }

    #[test]
    fn fenced_records_survive_a_crash() {
        let (mut mem, mut log) = fresh();
        log.append(&mut mem, &LogRecord::write(1, 100, u64::MAX - 5), true);
        log.append(&mut mem, &LogRecord::commit(1), true);
        mem.sfence();
        let records = recover_from(mem, false);
        assert_eq!(records.len(), 2);
        assert_eq!(records[0], LogRecord::write(1, 100, u64::MAX - 5));
        assert_eq!(records[1], LogRecord::commit(1));
    }

    #[test]
    fn unfenced_nt_records_are_lost() {
        let (mut mem, mut log) = fresh();
        log.append(&mut mem, &LogRecord::write(1, 100, 7), true);
        // no fence
        let records = recover_from(mem, false);
        assert!(records.is_empty());
    }

    #[test]
    fn cached_appends_need_flush_on_fail() {
        let (mut mem, mut log) = fresh();
        log.append(&mut mem, &LogRecord::write(3, 8, 9), false);
        log.append(&mut mem, &LogRecord::commit(3), false);
        // Without the save, cached log words never reached NVRAM.
        let lost = recover_from(mem.clone(), false);
        assert!(lost.is_empty());
        // With flush-on-fail, they did.
        let saved = recover_from(mem, true);
        assert_eq!(saved.len(), 2);
    }

    #[test]
    fn torn_record_detected_and_scan_stops() {
        let (mut mem, mut log) = fresh();
        log.append(&mut mem, &LogRecord::write(1, 100, 7), true);
        mem.sfence();
        // Tear: append another record but only fence after corrupting the
        // image manually — emulate by appending with cached stores and
        // flushing just the first word's line... simplest honest tear:
        // write the header word durably but not the payload words.
        let header = (2u64 << 8) /* kind 0 = Write */ | (1 << 63);
        let addr = BASE + log.head * 8;
        mem.ntstore_u64(addr, header);
        mem.sfence();
        let records = recover_from(mem, false);
        // Only the first, intact record is recovered; the torn one is
        // rejected by its payload words' stale polarity.
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].txid, 1);
    }

    #[test]
    fn truncation_hides_old_records() {
        let (mut mem, mut log) = fresh();
        log.append(&mut mem, &LogRecord::write(1, 100, 7), true);
        log.append(&mut mem, &LogRecord::commit(1), true);
        mem.sfence();
        log.truncate(&mut mem, true);
        let records = recover_from(mem, false);
        assert!(records.is_empty());
    }

    #[test]
    fn truncate_to_mark_keeps_later_appends_live() {
        let (mut mem, mut log) = fresh();
        log.append(&mut mem, &LogRecord::write(1, 100, 7), true);
        mem.sfence();
        // Re-append the records that must survive, fence, and only then
        // move the tail past the dead prefix — the preserving-truncation
        // protocol.
        let mark = log.mark();
        log.append(&mut mem, &LogRecord::write(2, 200, 9), true);
        log.append(&mut mem, &LogRecord::prepare((1 << 48) + 1), true);
        mem.sfence();
        log.truncate_to(&mut mem, mark, true);
        let records = recover_from(mem, false);
        assert_eq!(records.len(), 2);
        assert_eq!(records[0], LogRecord::write(2, 200, 9));
        assert_eq!(records[1].kind, RecordKind::Prepare);
    }

    #[test]
    fn wrap_around_flips_polarity_and_still_recovers() {
        let (mut mem, mut log) = fresh();
        // 64-word log; fill it across several truncations to force
        // multiple wraps, then leave live records straddling the wrap.
        for round in 0..10u64 {
            while log.free_words() >= 5 {
                log.append(&mut mem, &LogRecord::write(round, round * 8, round), true);
            }
            mem.sfence();
            log.truncate(&mut mem, true);
        }
        log.append(&mut mem, &LogRecord::write(99, 512, 1), true);
        log.append(&mut mem, &LogRecord::commit(99), true);
        mem.sfence();
        let records = recover_from(mem, false);
        assert_eq!(records.len(), 2);
        assert_eq!(records[0].txid, 99);
        assert_eq!(records[1], LogRecord::commit(99));
    }

    #[test]
    fn full_value_range_round_trips() {
        let (mut mem, mut log) = fresh();
        let values = [0u64, 1, u64::MAX, 1 << 63, 0xdead_beef_cafe_babe];
        for (i, v) in values.iter().enumerate() {
            log.append(&mut mem, &LogRecord::write(i as u64, 64, *v), true);
        }
        mem.sfence();
        let records = recover_from(mem, false);
        assert_eq!(records.len(), values.len());
        for (r, v) in records.iter().zip(values) {
            assert_eq!(r.value, v);
        }
    }

    #[test]
    fn free_words_accounting() {
        let (mut mem, mut log) = fresh();
        let initial = log.free_words();
        assert_eq!(initial, 63); // 64 words minus one slack
        log.append(&mut mem, &LogRecord::write(1, 0, 0), true);
        assert_eq!(log.free_words(), 59);
        log.append(&mut mem, &LogRecord::commit(1), true);
        assert_eq!(log.free_words(), 58);
        mem.sfence();
        log.truncate(&mut mem, true);
        assert_eq!(log.free_words(), 63);
    }

    #[test]
    #[should_panic(expected = "log full")]
    fn overflow_panics_without_truncation() {
        let (mut mem, mut log) = fresh();
        for i in 0..20 {
            log.append(&mut mem, &LogRecord::write(i, 0, 0), true);
        }
    }

    #[test]
    fn abort_records_round_trip() {
        let (mut mem, mut log) = fresh();
        log.append(&mut mem, &LogRecord::abort(5), true);
        mem.sfence();
        let records = recover_from(mem, false);
        assert_eq!(records, vec![LogRecord::abort(5)]);
    }

    #[test]
    fn epoch_commit_records_round_trip() {
        let (mut mem, mut log) = fresh();
        log.append(&mut mem, &LogRecord::write(6, 128, 11), true);
        log.append(&mut mem, &LogRecord::write(7, 136, 12), true);
        log.append(&mut mem, &LogRecord::epoch_commit(7), true);
        mem.sfence();
        let records = recover_from(mem, false);
        assert_eq!(records.len(), 3);
        assert_eq!(records[2], LogRecord::epoch_commit(7));
        assert_eq!(records[2].kind, RecordKind::EpochCommit);
        assert_eq!(records[2].txid, 7);
    }

    #[test]
    fn prepare_records_round_trip() {
        let (mut mem, mut log) = fresh();
        let gtxid = (1u64 << 48) + 3;
        log.append(&mut mem, &LogRecord::write(gtxid, 128, 11), true);
        log.append(&mut mem, &LogRecord::prepare(gtxid), true);
        mem.sfence();
        let records = recover_from(mem, false);
        assert_eq!(records.len(), 2);
        assert_eq!(records[1], LogRecord::prepare(gtxid));
        assert_eq!(records[1].kind, RecordKind::Prepare);
        assert_eq!(records[1].txid, gtxid);
    }

    #[test]
    fn unfenced_prepare_marker_is_lost() {
        let (mut mem, mut log) = fresh();
        let gtxid = (1u64 << 48) + 3;
        log.append(&mut mem, &LogRecord::write(gtxid, 128, 11), true);
        mem.sfence();
        log.append(&mut mem, &LogRecord::prepare(gtxid), true);
        // The marker's ntstore never fenced: the shard is NOT prepared.
        let records = recover_from(mem, false);
        assert_eq!(records, vec![LogRecord::write(gtxid, 128, 11)]);
    }

    #[test]
    fn group_decision_round_trips_every_member() {
        let (mut mem, mut log) = fresh();
        let entries: Vec<u64> = (0..4u64)
            .map(|i| pack_group_entry(3 + i, (1 << 48) + 10 + i))
            .collect();
        log.append_group_decision(&mut mem, &entries, true);
        mem.sfence();
        let records = recover_from(mem, false);
        assert_eq!(records.len(), 4);
        for (i, r) in records.iter().enumerate() {
            let i = i as u64;
            assert_eq!(*r, LogRecord::group_member((1 << 48) + 10 + i, 3 + i, i));
        }
    }

    #[test]
    fn torn_group_record_yields_no_members() {
        // Durably write the header plus a strict prefix of the entry
        // words, then crash: presumed abort must hold for the WHOLE
        // group — recovery returns none of its members.
        let entries: Vec<u64> = (0..4u64).map(|i| pack_group_entry(1, 100 + i)).collect();
        for durable_words in 0..entries.len() + 1 {
            let (mut mem, mut log) = fresh();
            log.append(&mut mem, &LogRecord::commit(7), true);
            mem.sfence();
            // Replay the record word by word, fencing only the prefix.
            let header = (4u64 << 8) | 5 /* GroupDecision */;
            let mut words = vec![header];
            words.extend(&entries);
            for (i, payload) in words.iter().enumerate().take(durable_words) {
                let addr = BASE + (log.head + i as u64) * 8;
                mem.ntstore_u64(addr, payload | (1 << 63));
            }
            mem.sfence();
            let records = recover_from(mem, false);
            assert_eq!(
                records.len(),
                1,
                "prefix of {durable_words} durable words must drop the whole group"
            );
            assert_eq!(records[0], LogRecord::commit(7));
        }
    }

    #[test]
    fn complete_fenced_group_record_is_all_or_nothing() {
        // The same word-by-word replay with ALL words durable recovers
        // every member: the only two outcomes are none or all.
        let (mut mem, mut log) = fresh();
        let entries: Vec<u64> = (0..4u64).map(|i| pack_group_entry(2, 200 + i)).collect();
        log.append_group_decision(&mut mem, &entries, true);
        mem.sfence();
        let records = recover_from(mem, false);
        assert_eq!(records.len(), 4);
        assert!(records.iter().all(|r| r.kind == RecordKind::GroupDecision));
    }

    #[test]
    fn unfenced_group_decision_is_lost() {
        let (mut mem, mut log) = fresh();
        let entries = [pack_group_entry(1, 300), pack_group_entry(1, 301)];
        log.append_group_decision(&mut mem, &entries, true);
        // No fence: the batch never reached NVRAM.
        let records = recover_from(mem, false);
        assert!(records.is_empty());
    }

    #[test]
    fn settle_records_round_trip() {
        let (mut mem, mut log) = fresh();
        let gtxid = (1u64 << 48) + 9;
        log.append(&mut mem, &LogRecord::commit(gtxid), true);
        log.append(&mut mem, &LogRecord::settle(gtxid), true);
        mem.sfence();
        let records = recover_from(mem, false);
        assert_eq!(records.len(), 2);
        assert_eq!(records[1], LogRecord::settle(gtxid));
    }

    #[test]
    fn group_entry_packing_round_trips() {
        for (generation, gtxid) in [
            (0, 0),
            (1, (1 << 48) + 5),
            (GROUP_ENTRY_GEN_MAX, (1 << 50) - 1),
        ] {
            let (g, t) = unpack_group_entry(pack_group_entry(generation, gtxid));
            assert_eq!((g, t), (generation, gtxid));
        }
    }

    #[test]
    fn unfenced_epoch_marker_is_lost() {
        let (mut mem, mut log) = fresh();
        log.append(&mut mem, &LogRecord::write(6, 128, 11), true);
        mem.sfence();
        log.append(&mut mem, &LogRecord::epoch_commit(6), true);
        // The marker's ntstore never fenced: recovery must not see it.
        let records = recover_from(mem, false);
        assert_eq!(records, vec![LogRecord::write(6, 128, 11)]);
    }
}
