//! On-disk persistence of the co-search cache.
//!
//! The workspace's serde shim derives are no-ops (no registry access), so the
//! format here is deliberately hand-rolled: a line-based text file that is
//! trivially diffable and versioned by a header. A record is
//!
//! ```text
//! feather-cosearch-cache v1
//! E <escaped cache key>
//! R <result tokens>
//! T <escaped table key>
//! C <layout>
//! S <result tokens>      (the layout's best "stay" choice)
//! W <result tokens>      (the layout's best "switch" choice)
//! ```
//!
//! where result tokens are space-separated `key=value` pairs with the
//! separators percent-escaped. Unknown or malformed records are skipped on
//! load (a stale or corrupt cache degrades to recomputation, never to an
//! error), and a header mismatch discards the whole file.
//!
//! Persistence is **gated behind the `FEATHER_CACHE_DIR` environment
//! variable**: [`CoSearchCache::load_persistent`] returns an empty cache and
//! [`CoSearchCache::save_persistent`] is a no-op unless it is set. The
//! benches and the `resnet50_graph` example call these at startup/exit, so
//! repeated runs skip every co-search they have seen before — across
//! processes, not just within one.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use feather_arch::dataflow::{ArrayShape, Dataflow, LoopNest, ParallelDim, TemporalLoop};
use feather_arch::dims::Dim;
use feather_arch::energy::EnergyBreakdown;
use feather_arch::layout::Layout;

use crate::cache::CoSearchCache;
use crate::cosearch::{CoSearchResult, CoSearchTable, LayoutChoice};
use crate::evaluate::Evaluation;

/// File format header; bump the version when the encoding changes.
const HEADER: &str = "feather-cosearch-cache v1";

/// File name used inside `FEATHER_CACHE_DIR`.
const FILE_NAME: &str = "cosearch.cache";

/// The shared on-disk cache root, when `FEATHER_CACHE_DIR` is set.
///
/// The directory holds one file, the co-search tables of this module:
///
/// ```text
/// $FEATHER_CACHE_DIR/
///   cosearch.cache            co-search tables (this module)
/// ```
///
/// Compiled graph programs are not persisted: lowering a planned graph is
/// data-free and faster than parsing a stored program back.
pub fn cache_dir() -> Option<PathBuf> {
    std::env::var_os("FEATHER_CACHE_DIR").map(PathBuf::from)
}

/// Percent-escapes the characters the format uses as separators.
fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for ch in s.chars() {
        match ch {
            '%' => out.push_str("%25"),
            ' ' => out.push_str("%20"),
            '=' => out.push_str("%3D"),
            '\t' => out.push_str("%09"),
            '\n' => out.push_str("%0A"),
            '\r' => out.push_str("%0D"),
            _ => out.push(ch),
        }
    }
    out
}

/// Reverses [`esc`]; returns `None` on a malformed escape.
fn unesc(s: &str) -> Option<String> {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(ch) = chars.next() {
        if ch != '%' {
            out.push(ch);
            continue;
        }
        let hi = chars.next()?;
        let lo = chars.next()?;
        let byte = u8::from_str_radix(&format!("{hi}{lo}"), 16).ok()?;
        out.push(byte as char);
    }
    Some(out)
}

fn encode_parallel(dims: &[ParallelDim]) -> String {
    if dims.is_empty() {
        return "-".to_string();
    }
    dims.iter()
        .map(|p| format!("{}:{}", p.dim, p.factor))
        .collect::<Vec<_>>()
        .join("+")
}

fn decode_parallel(s: &str) -> Option<Vec<ParallelDim>> {
    if s == "-" {
        return Some(Vec::new());
    }
    s.split('+')
        .map(|tok| {
            let (dim, factor) = tok.split_once(':')?;
            Some(ParallelDim::new(
                dim.parse::<Dim>().ok()?,
                factor.parse().ok()?,
            ))
        })
        .collect()
}

fn encode_temporal(nest: &LoopNest) -> String {
    if nest.loops.is_empty() {
        return "-".to_string();
    }
    nest.loops
        .iter()
        .map(|l| format!("{}:{}", l.dim, l.extent))
        .collect::<Vec<_>>()
        .join("+")
}

fn decode_temporal(s: &str) -> Option<LoopNest> {
    if s == "-" {
        return Some(LoopNest::new([]));
    }
    let loops: Option<Vec<TemporalLoop>> = s
        .split('+')
        .map(|tok| {
            let (dim, extent) = tok.split_once(':')?;
            Some(TemporalLoop::new(
                dim.parse::<Dim>().ok()?,
                extent.parse().ok()?,
            ))
        })
        .collect();
    Some(LoopNest { loops: loops? })
}

/// Encodes one [`CoSearchResult`] as space-separated `key=value` tokens.
fn encode_result(r: &CoSearchResult) -> String {
    let df = &r.dataflow;
    let ev = &r.evaluation;
    let e = &ev.energy;
    [
        format!("df.name={}", esc(&df.name)),
        format!("df.shape={}x{}", df.shape.rows, df.shape.cols),
        format!("df.row={}", encode_parallel(&df.row_parallel)),
        format!("df.col={}", encode_parallel(&df.col_parallel)),
        format!("df.tmp={}", encode_temporal(&df.temporal)),
        format!("layout={}", esc(&r.layout.to_string())),
        format!("ev.arch={}", esc(&ev.arch)),
        format!("ev.layer={}", esc(&ev.layer)),
        format!("ev.dataflow={}", esc(&ev.dataflow)),
        format!("ev.layout={}", esc(&ev.layout)),
        format!("ev.cycles={}", ev.cycles),
        format!("ev.ideal={}", ev.ideal_cycles),
        format!("ev.conflict={:?}", ev.conflict_slowdown),
        format!("ev.stall={}", ev.stall_cycles),
        format!("ev.reorder={}", ev.reorder_cycles),
        format!("ev.sputil={:?}", ev.spatial_utilization),
        format!("ev.util={:?}", ev.utilization),
        format!("ev.lpc={:?}", ev.lines_per_cycle),
        format!("ev.redpj={:?}", ev.reorder_energy_pj),
        format!("ev.edp={:?}", ev.edp),
        format!(
            "ev.e={:?}+{:?}+{:?}+{:?}+{:?}+{:?}",
            e.compute_pj, e.register_pj, e.sram_pj, e.dram_pj, e.noc_pj, e.leakage_pj
        ),
    ]
    .join(" ")
}

/// Decodes [`encode_result`] output; `None` on any malformed token.
fn decode_result(s: &str) -> Option<CoSearchResult> {
    let get = |wanted: &str| -> Option<String> {
        s.split(' ').find_map(|tok| {
            let (k, v) = tok.split_once('=')?;
            (k == wanted).then(|| v.to_string())
        })
    };
    let shape = get("df.shape")?;
    let (rows, cols) = shape.split_once('x')?;
    let dataflow = Dataflow::new(
        unesc(&get("df.name")?)?,
        ArrayShape::new(rows.parse().ok()?, cols.parse().ok()?),
        decode_parallel(&get("df.row")?)?,
        decode_parallel(&get("df.col")?)?,
        decode_temporal(&get("df.tmp")?)?,
    );
    let layout: Layout = unesc(&get("layout")?)?.parse().ok()?;
    let energy_raw = get("ev.e")?;
    let parts: Vec<f64> = energy_raw
        .split('+')
        .map(|p| p.parse().ok())
        .collect::<Option<Vec<_>>>()?;
    let [compute_pj, register_pj, sram_pj, dram_pj, noc_pj, leakage_pj] = parts[..] else {
        return None;
    };
    let evaluation = Evaluation {
        arch: unesc(&get("ev.arch")?)?,
        layer: unesc(&get("ev.layer")?)?,
        dataflow: unesc(&get("ev.dataflow")?)?,
        layout: unesc(&get("ev.layout")?)?,
        cycles: get("ev.cycles")?.parse().ok()?,
        ideal_cycles: get("ev.ideal")?.parse().ok()?,
        conflict_slowdown: get("ev.conflict")?.parse().ok()?,
        stall_cycles: get("ev.stall")?.parse().ok()?,
        reorder_cycles: get("ev.reorder")?.parse().ok()?,
        spatial_utilization: get("ev.sputil")?.parse().ok()?,
        utilization: get("ev.util")?.parse().ok()?,
        lines_per_cycle: get("ev.lpc")?.parse().ok()?,
        energy: EnergyBreakdown {
            compute_pj,
            register_pj,
            sram_pj,
            dram_pj,
            noc_pj,
            leakage_pj,
        },
        reorder_energy_pj: get("ev.redpj")?.parse().ok()?,
        edp: get("ev.edp")?.parse().ok()?,
    };
    Some(CoSearchResult {
        dataflow,
        layout,
        evaluation,
    })
}

impl CoSearchCache {
    /// Serializes the cache (both result entries and whole tables) to `path`.
    ///
    /// # Errors
    /// Propagates filesystem errors.
    pub fn save_to(&self, path: &Path) -> io::Result<()> {
        let mut out = String::from(HEADER);
        out.push('\n');
        for (key, result) in self.entries() {
            out.push_str(&format!("E {}\n", esc(key)));
            out.push_str(&format!("R {}\n", encode_result(result)));
        }
        for (key, table) in self.table_entries() {
            out.push_str(&format!("T {}\n", esc(key)));
            for choice in &table.choices {
                out.push_str(&format!("C {}\n", esc(&choice.layout.to_string())));
                out.push_str(&format!("S {}\n", encode_result(&choice.stay)));
                out.push_str(&format!("W {}\n", encode_result(&choice.switch)));
            }
        }
        if let Some(dir) = path.parent() {
            fs::create_dir_all(dir)?;
        }
        fs::write(path, out)
    }

    /// Loads a cache previously written by [`CoSearchCache::save_to`].
    /// Malformed records are skipped; a header mismatch yields an empty
    /// cache. Hit/miss counters start at zero.
    ///
    /// # Errors
    /// Propagates filesystem errors (e.g. the file does not exist).
    pub fn load_from(path: &Path) -> io::Result<CoSearchCache> {
        let text = fs::read_to_string(path)?;
        let mut cache = CoSearchCache::new();
        let mut lines = text.lines();
        if lines.next() != Some(HEADER) {
            return Ok(cache);
        }
        let mut pending_entry: Option<String> = None;
        let mut pending_table: Option<(String, CoSearchTable)> = None;
        let mut pending_choice: Option<(Layout, Option<CoSearchResult>)> = None;
        let flush_table = |cache: &mut CoSearchCache, table: Option<(String, CoSearchTable)>| {
            if let Some((key, table)) = table {
                if !table.choices.is_empty() {
                    cache.insert_table(key, table);
                }
            }
        };
        for line in lines {
            let Some((tag, body)) = line.split_once(' ') else {
                continue;
            };
            match tag {
                "E" => {
                    flush_table(&mut cache, pending_table.take());
                    pending_entry = unesc(body);
                }
                "R" => {
                    if let (Some(key), Some(result)) = (pending_entry.take(), decode_result(body)) {
                        cache.insert_raw(key, result);
                    }
                }
                "T" => {
                    flush_table(&mut cache, pending_table.take());
                    pending_choice = None;
                    pending_table = unesc(body).map(|key| (key, CoSearchTable::default()));
                }
                "C" => {
                    pending_choice = unesc(body)
                        .and_then(|l| l.parse::<Layout>().ok())
                        .map(|l| (l, None));
                }
                "S" => {
                    if let Some((_, stay)) = pending_choice.as_mut() {
                        *stay = decode_result(body);
                    }
                }
                "W" => {
                    if let (Some((layout, Some(stay))), Some(switch)) =
                        (pending_choice.take(), decode_result(body))
                    {
                        if let Some((_, table)) = pending_table.as_mut() {
                            table.choices.push(LayoutChoice {
                                layout,
                                stay,
                                switch,
                            });
                        }
                    }
                }
                _ => {}
            }
        }
        flush_table(&mut cache, pending_table.take());
        Ok(cache)
    }

    /// The persistent cache file location, when `FEATHER_CACHE_DIR` is set.
    pub fn persistent_path() -> Option<PathBuf> {
        cache_dir().map(|dir| dir.join(FILE_NAME))
    }

    /// Loads the persistent cache if `FEATHER_CACHE_DIR` is set and holds
    /// one; an empty cache otherwise. Never errors — persistence is a pure
    /// accelerator.
    pub fn load_persistent() -> CoSearchCache {
        Self::persistent_path()
            .and_then(|path| Self::load_from(&path).ok())
            .unwrap_or_default()
    }

    /// Writes the cache to the persistent location. Returns `Ok(false)` when
    /// `FEATHER_CACHE_DIR` is unset (nothing written).
    ///
    /// # Errors
    /// Propagates filesystem errors.
    pub fn save_persistent(&self) -> io::Result<bool> {
        match Self::persistent_path() {
            Some(path) => self.save_to(&path).map(|()| true),
            None => Ok(false),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arch::ArchSpec;
    use crate::cosearch::{co_search_table, co_search_with};
    use crate::mapper::MapperConfig;
    use feather_arch::workload::{ConvLayer, Workload};

    fn workload() -> Workload {
        ConvLayer::new(1, 32, 16, 14, 14, 3, 3)
            .with_padding(1)
            .with_name("persist_layer")
            .into()
    }

    fn temp_path(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!(
            "feather-persist-test-{name}-{}",
            std::process::id()
        ))
    }

    /// Serializes the two tests that touch `FEATHER_CACHE_DIR` (tests run
    /// concurrently within the crate).
    static ENV_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    #[test]
    fn result_roundtrips_through_the_token_format() {
        let arch = ArchSpec::feather_like(16, 16);
        let result = co_search_with(&arch, &workload(), None, &MapperConfig::fast(), 0).unwrap();
        let decoded = decode_result(&encode_result(&result)).expect("decodes");
        assert_eq!(decoded, result);
    }

    #[test]
    fn escaping_roundtrips_awkward_strings() {
        for s in [
            "plain",
            "with space",
            "k=v",
            "a%20b",
            "tab\there",
            "nl\nhere",
        ] {
            assert_eq!(unesc(&esc(s)).as_deref(), Some(s));
        }
        // Malformed escapes are rejected, not mangled.
        assert_eq!(unesc("%2"), None);
        assert_eq!(unesc("%zz"), None);
    }

    #[test]
    fn cache_roundtrips_through_disk() {
        let arch = ArchSpec::feather_like(16, 16);
        let mapper = MapperConfig::fast();
        let w = workload();
        let mut cache = CoSearchCache::new();
        let result = co_search_with(&arch, &w, None, &mapper, 0).unwrap();
        cache.insert(&arch, &w, None, &mapper, 0, result.clone());
        let table = co_search_table(&arch, &w, &mapper, 0).unwrap();
        cache.insert_table(
            crate::cache::table_key(&arch, &w, &mapper, 0),
            table.clone(),
        );

        let path = temp_path("roundtrip");
        cache.save_to(&path).unwrap();
        let loaded = CoSearchCache::load_from(&path).unwrap();
        std::fs::remove_file(&path).ok();

        assert_eq!(loaded.len(), 1);
        assert_eq!(loaded.table_count(), 1);
        let key = crate::cache::table_key(&arch, &w, &mapper, 0);
        assert_eq!(loaded.peek_table(&key), Some(&table));
        let mut loaded = loaded;
        let hit = loaded.lookup(&arch, &w, None, &mapper, 0).unwrap();
        assert_eq!(hit.layout, result.layout);
        assert_eq!(hit.evaluation.edp, result.evaluation.edp);
    }

    #[test]
    fn header_mismatch_and_garbage_degrade_to_empty() {
        let path = temp_path("garbage");
        std::fs::write(&path, "something else entirely\nE x\nR y\n").unwrap();
        let loaded = CoSearchCache::load_from(&path).unwrap();
        assert!(loaded.is_empty());
        assert_eq!(loaded.table_count(), 0);
        // Right header, malformed records → skipped, not fatal.
        std::fs::write(&path, format!("{HEADER}\nE key\nR not-tokens\nQ ???\n")).unwrap();
        let loaded = CoSearchCache::load_from(&path).unwrap();
        assert!(loaded.is_empty());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn missing_file_is_an_error_but_load_persistent_degrades() {
        let _guard = ENV_LOCK.lock().unwrap();
        assert!(CoSearchCache::load_from(&temp_path("never-written")).is_err());
        // Without FEATHER_CACHE_DIR the persistent helpers are inert.
        if std::env::var_os("FEATHER_CACHE_DIR").is_none() {
            assert!(CoSearchCache::persistent_path().is_none());
            assert!(CoSearchCache::load_persistent().is_empty());
            assert!(!CoSearchCache::new().save_persistent().unwrap());
        }
    }

    #[test]
    fn persistent_roundtrip_via_env_dir() {
        let _guard = ENV_LOCK.lock().unwrap();
        let dir = temp_path("envdir");
        std::env::set_var("FEATHER_CACHE_DIR", &dir);
        let arch = ArchSpec::feather_like(16, 16);
        let mapper = MapperConfig::fast();
        let w = workload();
        let mut cache = CoSearchCache::new();
        let table = co_search_table(&arch, &w, &mapper, 0).unwrap();
        cache.insert_table(crate::cache::table_key(&arch, &w, &mapper, 0), table);
        assert!(cache.save_persistent().unwrap());
        let loaded = CoSearchCache::load_persistent();
        assert_eq!(loaded.table_count(), 1);
        std::env::remove_var("FEATHER_CACHE_DIR");
        std::fs::remove_dir_all(&dir).ok();
    }
}
