//! The append-only settle log: one file per campaign that makes each
//! settled pair resumable at O(1) cost.
//!
//! The first line is the header, a [`SpecCheckpoint`]: the effective spec
//! plus the campaign result with phase 1 and the probe filled in and every
//! pair [`PairOutcome::Cancelled`](crate::PairOutcome::Cancelled). Every
//! settled pair then adds one line `{"index":i,"pair":{…}}`. Each line is
//! compact JSON behind its checksum, `<16 hex digits of FNV-1a 64> <json>`,
//! and ends in `\n`.
//!
//! The header is written with [`write_atomic`], so a log either has a
//! whole header or does not exist. A pair line is one `write(2)` on an
//! `O_APPEND` descriptor: a killed process loses at most the line it was
//! writing, and [`SettleLog::flush`] (fdatasync) makes every line written
//! so far survive a power loss too.
//!
//! [`SettleLog::replay`] folds the pair lines into the header, giving the
//! resumable [`CampaignResult`] for
//! [`CampaignSession::resume_from`](crate::session::CampaignSession::resume_from).
//! It stops at the first torn or corrupt line and truncates the file
//! there, so appends after a resume extend a valid log.

use std::fs::{self, File, OpenOptions};
use std::io::{self, Write};
use std::path::Path;

use crate::campaign::{CampaignResult, PairMeasurement};
use crate::durable::write_atomic;
use crate::spec::SpecCheckpoint;
use crate::store::fnv1a64;

/// An open settle log, positioned for appends. See the
/// [module docs](self) for the format.
#[derive(Debug)]
pub struct SettleLog {
    file: File,
}

impl SettleLog {
    /// Start a log at `path` holding only `header` (replacing any file
    /// there), durably.
    pub fn create(path: &Path, header: &SpecCheckpoint) -> io::Result<SettleLog> {
        let json = serde_json::to_string(header).expect("spec checkpoint serialises");
        write_atomic(path, &encode_line(&json))?;
        SettleLog::open(path)
    }

    fn open(path: &Path) -> io::Result<SettleLog> {
        let file = OpenOptions::new().append(true).open(path)?;
        Ok(SettleLog { file })
    }

    /// Read the log at `path` back: the header with every intact pair line
    /// folded in. Reading stops at the first torn or corrupt line; the
    /// file is truncated there and returned open for appends. A missing or
    /// damaged header is an error ([`io::ErrorKind::InvalidData`] when the
    /// file exists but does not parse).
    pub fn replay(path: &Path) -> io::Result<(SpecCheckpoint, SettleLog)> {
        let bytes = fs::read(path)?;
        let (checkpoint, _, valid) = read(&bytes)?;
        let log = SettleLog::open(path)?;
        if valid < bytes.len() {
            log.file.set_len(valid as u64)?;
            log.file.sync_data()?;
        }
        Ok((checkpoint, log))
    }

    /// Append one settled pair (its canonical index and measurement) as a
    /// single line. Safe to call from several threads: each line is one
    /// `write(2)` on an append-mode descriptor, so lines never interleave.
    pub fn append(&self, index: usize, meas: &PairMeasurement) -> io::Result<()> {
        let json = serde_json::to_string(&LineRef { index, pair: meas })
            .expect("pair measurement serialises");
        let line = encode_line(&json);
        let written = (&self.file).write(&line)?;
        if written != line.len() {
            return Err(io::Error::new(
                io::ErrorKind::WriteZero,
                format!(
                    "settle log line cut short at {written} of {} bytes",
                    line.len()
                ),
            ));
        }
        Ok(())
    }

    /// Make every line appended so far durable (fdatasync).
    pub fn flush(&self) -> io::Result<()> {
        self.file.sync_data()
    }
}

/// How many intact pair lines the log at `path` holds, read-only (a live
/// service may still be appending): the progress `queue status` shows.
pub fn settled_pairs(path: &Path) -> io::Result<usize> {
    let (_, pairs, _) = read(&fs::read(path)?)?;
    Ok(pairs)
}

/// Parse a whole log: the folded checkpoint, how many pair lines were
/// intact, and the byte length of the intact prefix.
fn read(bytes: &[u8]) -> io::Result<(SpecCheckpoint, usize, usize)> {
    let invalid = |what: &str| io::Error::new(io::ErrorKind::InvalidData, what.to_string());
    let header_end = bytes
        .iter()
        .position(|&b| b == b'\n')
        .ok_or_else(|| invalid("settle log header is torn"))?;
    let header = decode_line(&bytes[..header_end])
        .ok_or_else(|| invalid("settle log header fails its checksum"))?;
    let header = SpecCheckpoint::from_json(header)
        .map_err(|e| invalid(&format!("settle log header does not parse: {e}")))?;

    let mut pairs = header.result.pairs().to_vec();
    let mut pos = header_end + 1;
    let mut intact = 0;
    while let Some(len) = bytes[pos..].iter().position(|&b| b == b'\n') {
        let line = decode_line(&bytes[pos..pos + len])
            .and_then(|json| serde_json::from_str::<Line>(json).ok());
        let Some(Line { index, pair }) = line else {
            break;
        };
        // A line must name one of the header's pairs, at its canonical
        // index, with a settled outcome.
        match pairs.get_mut(index) {
            Some(slot)
                if slot.init == pair.init
                    && slot.target == pair.target
                    && !pair.outcome.is_cancelled() =>
            {
                *slot = pair;
            }
            _ => break,
        }
        pos += len + 1;
        intact += 1;
    }
    let cp = header.result;
    let result = CampaignResult::new(
        cp.device_name,
        cp.device_index,
        cp.seed,
        cp.phase1,
        cp.probe,
        pairs,
    );
    let checkpoint = SpecCheckpoint {
        spec: header.spec,
        result,
    };
    Ok((checkpoint, intact, pos))
}

/// `<checksum> <json>\n`.
fn encode_line(json: &str) -> Vec<u8> {
    let mut line = format!("{:016x} ", checksum(json.as_bytes())).into_bytes();
    line.reserve(json.len() + 1);
    line.extend_from_slice(json.as_bytes());
    line.push(b'\n');
    line
}

/// The JSON of one line (without its `\n`) when its checksum holds.
fn decode_line(line: &[u8]) -> Option<&str> {
    let (sum, json) = (line.get(..16)?, line.get(17..)?);
    if line[16] != b' ' {
        return None;
    }
    let sum = u64::from_str_radix(std::str::from_utf8(sum).ok()?, 16).ok()?;
    if checksum(json) != sum {
        return None;
    }
    std::str::from_utf8(json).ok()
}

/// FNV-1a 64 (the store's content-hash primitive, standard offset basis).
fn checksum(bytes: &[u8]) -> u64 {
    fnv1a64(bytes, 0xcbf2_9ce4_8422_2325)
}

/// A pair line as written (borrowing the measurement).
struct LineRef<'a> {
    index: usize,
    pair: &'a PairMeasurement,
}

impl serde::Serialize for LineRef<'_> {
    fn to_value(&self) -> serde::Value {
        serde::Value::Map(vec![
            ("index".to_string(), self.index.to_value()),
            ("pair".to_string(), self.pair.to_value()),
        ])
    }
}

/// A pair line as read back.
#[derive(serde::Deserialize)]
struct Line {
    index: usize,
    pair: PairMeasurement,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::CampaignSession;
    use crate::spec::CampaignSpec;
    use parking_lot::Mutex;
    use std::collections::HashSet;
    use std::path::PathBuf;
    use std::sync::Arc;

    fn spec() -> CampaignSpec {
        CampaignSpec::builder("a100")
            .frequencies_mhz(&[705, 1095, 1410])
            .measurements(3, 6)
            .simulated_sms(Some(2))
            .seed(41)
            .build()
            .unwrap()
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("latest-settle-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// Run the campaign through the settle hook into the log at `path`,
    /// resuming from `resume` (a replayed log) when given. Returns the
    /// result and the canonical indices the run measured.
    fn run_logged(
        path: &Path,
        resume: Option<(SpecCheckpoint, SettleLog)>,
    ) -> (CampaignResult, Vec<usize>) {
        let spec = spec();
        let mut session = CampaignSession::new(spec.resolve().unwrap()).sequential(true);
        let log = match resume {
            Some((cp, log)) => {
                session = session.resume_from(cp.result);
                Some(log)
            }
            None => None,
        };
        let log = Arc::new(Mutex::new(log));
        let measured = Arc::new(Mutex::new(Vec::new()));
        let (hook_log, hook_measured, path) = (log.clone(), measured.clone(), path.to_path_buf());
        let session = session.on_settle(move |header, index, meas| {
            let mut log = hook_log.lock();
            let log = log.get_or_insert_with(|| {
                let cp = SpecCheckpoint {
                    spec: spec.clone(),
                    result: header.clone(),
                };
                SettleLog::create(&path, &cp).unwrap()
            });
            log.append(index, meas).unwrap();
            hook_measured.lock().push(index);
        });
        let result = session.run().unwrap();
        let measured = measured.lock().clone();
        (result, measured)
    }

    /// Byte offsets just past each line's `\n`.
    fn line_ends(bytes: &[u8]) -> Vec<usize> {
        bytes
            .iter()
            .enumerate()
            .filter(|&(_, &b)| b == b'\n')
            .map(|(i, _)| i + 1)
            .collect()
    }

    #[test]
    fn a_full_log_replays_to_the_finished_result() {
        let dir = temp_dir("full");
        let path = dir.join("c.log");
        let (full, measured) = run_logged(&path, None);
        assert_eq!(measured.len(), 6);
        let (cp, _) = SettleLog::replay(&path).unwrap();
        assert_eq!(cp.spec, spec());
        assert_eq!(cp.result.to_json(), full.to_json());
        assert_eq!(settled_pairs(&path).unwrap(), 6);
        // One header line plus one line per settled pair.
        assert_eq!(line_ends(&fs::read(&path).unwrap()).len(), 7);
        fs::remove_dir_all(&dir).ok();
    }

    /// Cut the log at every byte offset: each replay restores exactly the
    /// pairs whose lines are whole, truncates the file to them, and the
    /// resume appends the rest to an uninterrupted result, bit for bit,
    /// without measuring a restored pair again.
    #[test]
    fn a_log_cut_at_any_byte_resumes_bitwise() {
        let dir = temp_dir("cut");
        let (full, _) = run_logged(&dir.join("full.log"), None);
        let bytes = fs::read(dir.join("full.log")).unwrap();
        let ends = line_ends(&bytes);
        let path = dir.join("cut.log");
        // Resumes are a function of the replayed checkpoint; run each
        // distinct one once.
        let mut resumed = HashSet::new();
        for cut in 0..=bytes.len() {
            fs::write(&path, &bytes[..cut]).unwrap();
            let whole = ends.iter().filter(|&&end| end <= cut).count();
            if whole == 0 {
                // Torn header: nothing to resume from.
                assert!(SettleLog::replay(&path).is_err(), "cut at {cut}");
                continue;
            }
            let (cp, log) = SettleLog::replay(&path).unwrap();
            assert_eq!(fs::metadata(&path).unwrap().len() as usize, ends[whole - 1]);
            let restored: Vec<usize> = (0..cp.result.pairs().len())
                .filter(|&i| !cp.result.pairs()[i].outcome.is_cancelled())
                .collect();
            assert_eq!(restored.len(), whole - 1, "cut at {cut}");
            if !resumed.insert(cp.result.to_json()) {
                continue;
            }
            let (result, measured) = run_logged(&path, Some((cp, log)));
            assert_eq!(result.to_json(), full.to_json(), "cut at {cut}");
            assert!(
                measured.iter().all(|i| !restored.contains(i)),
                "cut at {cut}: re-measured a restored pair"
            );
            let (cp, _) = SettleLog::replay(&path).unwrap();
            assert_eq!(cp.result.to_json(), full.to_json(), "cut at {cut}");
        }
        assert_eq!(resumed.len(), 7, "one resume per whole-line prefix");
        fs::remove_dir_all(&dir).ok();
    }

    /// One flipped byte in a middle pair line: replay keeps the lines
    /// before it and drops it and everything after it.
    #[test]
    fn a_corrupt_middle_line_truncates_the_log_there() {
        let dir = temp_dir("flip");
        let path = dir.join("c.log");
        let (full, _) = run_logged(&path, None);
        let mut bytes = fs::read(&path).unwrap();
        let ends = line_ends(&bytes);
        // Header, then pair lines 1..=6; damage pair line 3.
        let (start, end) = (ends[2], ends[3]);
        let at = (start + end) / 2;
        bytes[at] ^= if bytes[at] ^ 0x01 == b'\n' {
            0x02
        } else {
            0x01
        };
        fs::write(&path, &bytes).unwrap();

        let (cp, log) = SettleLog::replay(&path).unwrap();
        assert_eq!(fs::metadata(&path).unwrap().len() as usize, start);
        let restored: Vec<usize> = (0..cp.result.pairs().len())
            .filter(|&i| !cp.result.pairs()[i].outcome.is_cancelled())
            .collect();
        assert_eq!(restored.len(), 2);
        let (result, measured) = run_logged(&path, Some((cp, log)));
        assert_eq!(result.to_json(), full.to_json());
        assert_eq!(measured.len(), 4);
        assert!(measured.iter().all(|i| !restored.contains(i)));
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_missing_or_damaged_header_is_refused() {
        let dir = temp_dir("header");
        let path = dir.join("c.log");
        assert_eq!(
            SettleLog::replay(&path).unwrap_err().kind(),
            io::ErrorKind::NotFound
        );
        run_logged(&path, None);
        let mut bytes = fs::read(&path).unwrap();
        bytes[20] ^= 0x01;
        fs::write(&path, &bytes).unwrap();
        assert_eq!(
            SettleLog::replay(&path).unwrap_err().kind(),
            io::ErrorKind::InvalidData
        );
        fs::remove_dir_all(&dir).ok();
    }
}
