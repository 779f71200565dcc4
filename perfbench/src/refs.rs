//! The pinned correctness references: a CRC-64 per paper- and test-scale
//! artifact (keyed by config hash) and per rendered results file. They
//! were generated from the program (`ff-perfbench refs`), not from the
//! committed `results/` directory.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use ff_harness::integrity::crc64;

/// One pinned table: key (config hash or results file name) → CRC-64.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CrcTable(BTreeMap<String, u64>);

impl CrcTable {
    /// Parses `key crc64-hex [comment]` lines; `#` starts a comment line.
    pub fn parse(text: &str) -> CrcTable {
        let mut map = BTreeMap::new();
        for line in text.lines().filter(|l| !l.trim().is_empty() && !l.starts_with('#')) {
            let mut fields = line.split_whitespace();
            let key = fields.next().expect("non-empty line has a first field");
            let crc = fields
                .next()
                .and_then(|c| u64::from_str_radix(c, 16).ok())
                .unwrap_or_else(|| panic!("bad reference line `{line}`"));
            map.insert(key.to_string(), crc);
        }
        CrcTable(map)
    }

    /// Renders `(key, bytes, comment)` entries in the [`CrcTable::parse`]
    /// format, sorted by key.
    pub fn render(header: &str, entries: &[(String, Vec<u8>, String)]) -> String {
        let mut sorted: Vec<&(String, Vec<u8>, String)> = entries.iter().collect();
        sorted.sort_by(|a, b| a.0.cmp(&b.0));
        let mut out = format!("# {header}\n");
        for (key, bytes, comment) in sorted {
            let _ = write!(out, "{key} {:016x}", crc64(bytes));
            let _ = if comment.is_empty() { writeln!(out) } else { writeln!(out, " {comment}") };
        }
        out
    }

    /// Checks `bytes` against the entry for `key`.
    pub fn verify(&self, key: &str, bytes: &[u8]) -> Result<(), String> {
        match self.0.get(key) {
            None => Err(format!("{key}: no pinned reference")),
            Some(&want) => {
                let got = crc64(bytes);
                if got == want {
                    Ok(())
                } else {
                    Err(format!("{key}: crc64 {got:016x}, pinned {want:016x}"))
                }
            }
        }
    }
}

/// Which pinned table set to check against.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RefSet {
    /// `full_grid(Scale::Paper)`.
    Paper,
    /// `full_grid(Scale::Test)`.
    Test,
}

impl RefSet {
    /// The pinned per-config-hash artifact table.
    pub fn artifacts(self) -> CrcTable {
        CrcTable::parse(match self {
            RefSet::Paper => include_str!("../ref/paper_artifacts.crc64"),
            RefSet::Test => include_str!("../ref/test_artifacts.crc64"),
        })
    }

    /// The pinned rendered-results table.
    pub fn results(self) -> CrcTable {
        CrcTable::parse(match self {
            RefSet::Paper => include_str!("../ref/paper_results.crc64"),
            RefSet::Test => include_str!("../ref/test_results.crc64"),
        })
    }

    /// File stem of the tables under `ref/`.
    pub fn stem(self) -> &'static str {
        match self {
            RefSet::Paper => "paper",
            RefSet::Test => "test",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tables_round_trip_and_catch_a_flipped_byte() {
        let body = b"{\"kind\":\"sim\"}".to_vec();
        let text = CrcTable::render("t", &[("00ff".into(), body.clone(), "a/b".into())]);
        let table = CrcTable::parse(&text);
        assert_eq!(table.0.len(), 1);
        assert!(table.verify("00ff", &body).is_ok());
        let mut flipped = body;
        flipped[3] ^= 0x01;
        assert!(table.verify("00ff", &flipped).is_err());
        assert!(table.verify("0100", b"").is_err());
    }

    #[test]
    fn pinned_tables_cover_every_planned_job_and_results_file() {
        use ff_workloads::Scale;
        for (set, scale) in [(RefSet::Paper, Scale::Paper), (RefSet::Test, Scale::Test)] {
            let plan = ff_harness::full_grid(scale);
            let table = set.artifacts();
            assert_eq!(table.0.len(), plan.len());
            for spec in plan {
                assert!(table.0.contains_key(&format!("{:016x}", spec.config_hash())));
            }
            assert_eq!(set.results().0.len(), ff_harness::render_results::RESULTS_FILES.len());
        }
    }
}
