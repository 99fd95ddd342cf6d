//! The unified rendering contract: every figure is an [`Artifact`], every
//! output format a [`Sink`].
//!
//! The paper's evaluation is artefact-driven — heatmaps (Figs. 3, 7, 8),
//! violins (Fig. 4), scatters (Figs. 5, 6), boxplots (Fig. 9), Tables I–II
//! and the EXPERIMENTS.md records — but this crate used to expose each as
//! its own unrelated API (`Heatmap::render`, `ViolinSummary::render`,
//! `render_scatter`, `boxplot_svg`, …). The [`Artifact`] trait replaces all
//! of that with one verb:
//!
//! ```
//! use latest_report::{Artifact, Format, Heatmap, TextSink};
//!
//! let hm = Heatmap::build(&[705u32, 1410], &[705u32, 1410], |r, c| {
//!     if r == c { None } else { Some(1.0) }
//! })
//! .with_title("demo [ms]");
//! let mut sink = TextSink::new();
//! Artifact::render(&hm, &mut sink).unwrap();
//! assert!(sink.as_str().contains("demo"));
//! // Or in one call, for any of the four formats:
//! let svg = latest_report::render_to_string(&hm, Format::Svg).unwrap();
//! assert!(svg.starts_with("<svg"));
//! ```
//!
//! Figure types that predate the trait keep their historical inherent
//! renderers (`Heatmap::render(title, color)`, `TextTable::render()`,
//! `ViolinSummary::render(width)`), which shadow the trait method on a
//! direct call — go through [`render_to_string`] or
//! `Artifact::render(&x, &mut sink)` when you want the sink-driven path.
//!
//! Every figure type renders through **all four** sinks:
//!
//! | Sink | Produces |
//! |---|---|
//! | [`TextSink`] | the terminal rendering (tables, ASCII plots) |
//! | [`SvgSink`] | a standalone deterministic SVG document |
//! | [`CsvSink`] | the figure's underlying data as CSV |
//! | [`JsonSink`] | the figure's underlying data as JSON |
//!
//! All renderings are deterministic: the same artifact renders to the same
//! bytes, so bundles can be committed and diffed.

use std::fmt::Write as _;

use crate::boxplot::{BoxStats, BoxplotGroup};
use crate::experiments::ExperimentRecord;
use crate::heatmap::Heatmap;
use crate::scatter::{render_scatter, Scatter};
use crate::svg::{
    boxplot_svg, heatmap_svg, scatter_svg, text_svg, violin_pair_svg, violins_svg, SvgStyle,
};
use crate::table::TextTable;
use crate::violin::{ViolinPair, ViolinSummary};

/// The four output formats of the reporting pipeline.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Format {
    /// Terminal-oriented plain text.
    Text,
    /// Standalone SVG document.
    Svg,
    /// Machine-readable CSV.
    Csv,
    /// Machine-readable JSON.
    Json,
}

impl Format {
    /// Every format, in bundle emission order.
    pub const ALL: [Format; 4] = [Format::Text, Format::Svg, Format::Csv, Format::Json];

    /// Conventional file extension.
    pub fn extension(&self) -> &'static str {
        match self {
            Format::Text => "txt",
            Format::Svg => "svg",
            Format::Csv => "csv",
            Format::Json => "json",
        }
    }
}

impl std::fmt::Display for Format {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Format::Text => "text",
            Format::Svg => "svg",
            Format::Csv => "csv",
            Format::Json => "json",
        })
    }
}

/// Errors surfaced by the rendering pipeline.
#[derive(Debug)]
pub enum ReportError {
    /// Underlying I/O failure (bundle writes).
    Io(std::io::Error),
}

impl std::fmt::Display for ReportError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReportError::Io(e) => write!(f, "report I/O: {e}"),
        }
    }
}

impl std::error::Error for ReportError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ReportError::Io(e) => Some(e),
        }
    }
}

impl From<std::io::Error> for ReportError {
    fn from(e: std::io::Error) -> Self {
        ReportError::Io(e)
    }
}

/// Result alias for rendering operations.
pub type ReportResult<T> = Result<T, ReportError>;

/// An output destination with a declared [`Format`]. Artifacts ask the sink
/// which format it wants and write the matching rendering.
pub trait Sink {
    /// The format this sink accepts.
    fn format(&self) -> Format;
    /// Append rendered content.
    fn write_str(&mut self, s: &str) -> ReportResult<()>;
}

macro_rules! string_sink {
    ($(#[$doc:meta])* $name:ident, $format:expr) => {
        $(#[$doc])*
        #[derive(Clone, Debug, Default)]
        pub struct $name {
            buf: String,
        }

        impl $name {
            /// An empty sink.
            pub fn new() -> Self {
                Self { buf: String::new() }
            }

            /// The content rendered so far.
            pub fn as_str(&self) -> &str {
                &self.buf
            }

            /// Consume the sink, yielding its content.
            pub fn into_string(self) -> String {
                self.buf
            }
        }

        impl Sink for $name {
            fn format(&self) -> Format {
                $format
            }

            fn write_str(&mut self, s: &str) -> ReportResult<()> {
                self.buf.push_str(s);
                Ok(())
            }
        }
    };
}

string_sink!(
    /// In-memory sink collecting the plain-text rendering.
    TextSink,
    Format::Text
);
string_sink!(
    /// In-memory sink collecting the SVG rendering.
    SvgSink,
    Format::Svg
);
string_sink!(
    /// In-memory sink collecting the CSV rendering.
    CsvSink,
    Format::Csv
);
string_sink!(
    /// In-memory sink collecting the JSON rendering.
    JsonSink,
    Format::Json
);

/// A renderable paper artefact. One implementation per figure type; one
/// rendering per [`Sink`] format.
pub trait Artifact {
    /// Human title of the artefact (figure caption / table heading).
    fn title(&self) -> &str;

    /// Render into `sink`, in the format the sink declares.
    fn render(&self, sink: &mut dyn Sink) -> ReportResult<()>;
}

/// Render an artifact to a string in the given format — the convenience
/// wrapper over the four sink types.
pub fn render_to_string(artifact: &dyn Artifact, format: Format) -> ReportResult<String> {
    match format {
        Format::Text => {
            let mut sink = TextSink::new();
            artifact.render(&mut sink)?;
            Ok(sink.into_string())
        }
        Format::Svg => {
            let mut sink = SvgSink::new();
            artifact.render(&mut sink)?;
            Ok(sink.into_string())
        }
        Format::Csv => {
            let mut sink = CsvSink::new();
            artifact.render(&mut sink)?;
            Ok(sink.into_string())
        }
        Format::Json => {
            let mut sink = JsonSink::new();
            artifact.render(&mut sink)?;
            Ok(sink.into_string())
        }
    }
}

// --- shared rendering helpers ----------------------------------------------

/// Quote a CSV cell when it contains structural characters.
pub(crate) fn csv_cell(s: &str) -> String {
    if s.contains([',', '"', '\n']) {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_string()
    }
}

/// Wrap a raw [`serde::Value`] so the vendored `serde_json` can print it.
pub(crate) struct RawValue(pub(crate) serde::Value);

// Hand-written: passes an already-built value tree through unchanged.
impl serde::Serialize for RawValue {
    fn to_value(&self) -> serde::Value {
        self.0.clone()
    }
}

/// Pretty-print a raw value tree with the crate's one JSON convention
/// (two-space pretty form, trailing newline) — every JSON the pipeline
/// emits goes through here so the bitwise-determinism promise has a single
/// implementation to keep.
pub(crate) fn json_of(value: serde::Value) -> String {
    let mut text = serde_json::to_string_pretty(&RawValue(value)).expect("value tree serialises");
    text.push('\n');
    text
}

pub(crate) fn map(entries: Vec<(&str, serde::Value)>) -> serde::Value {
    serde::Value::Map(
        entries
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

pub(crate) fn str_v(s: &str) -> serde::Value {
    serde::Value::Str(s.to_string())
}

pub(crate) fn f64_v(x: f64) -> serde::Value {
    serde::Value::F64(x)
}

pub(crate) fn u64_v(x: usize) -> serde::Value {
    serde::Value::U64(x as u64)
}

pub(crate) fn f64_seq(xs: &[f64]) -> serde::Value {
    serde::Value::Seq(xs.iter().map(|&x| f64_v(x)).collect())
}

fn box_value(label: &str, b: &BoxStats) -> serde::Value {
    map(vec![
        ("label", str_v(label)),
        ("q1", f64_v(b.q1)),
        ("median", f64_v(b.median)),
        ("q3", f64_v(b.q3)),
        ("whisker_lo", f64_v(b.whisker_lo)),
        ("whisker_hi", f64_v(b.whisker_hi)),
        ("n", u64_v(b.n)),
        ("fliers", f64_seq(&b.fliers)),
    ])
}

fn box_csv_row(label: &str, b: &BoxStats) -> String {
    format!(
        "{},{},{},{},{},{},{},{}\n",
        csv_cell(label),
        b.q1,
        b.median,
        b.q3,
        b.whisker_lo,
        b.whisker_hi,
        b.n,
        b.fliers.len()
    )
}

const BOX_CSV_HEADER: &str = "label,q1_ms,median_ms,q3_ms,whisker_lo_ms,whisker_hi_ms,n,fliers\n";

fn violin_value(v: &ViolinSummary) -> serde::Value {
    map(vec![
        ("label", str_v(&v.label)),
        ("n", u64_v(v.summary.n as usize)),
        ("q1", f64_v(v.q1)),
        ("median", f64_v(v.median)),
        ("q3", f64_v(v.q3)),
        ("grid_ms", f64_seq(&v.grid)),
        ("density", f64_seq(&v.density)),
    ])
}

fn violin_csv(violins: &[&ViolinSummary]) -> String {
    let mut out = String::from("label,grid_ms,density\n");
    for v in violins {
        for (g, d) in v.grid.iter().zip(&v.density) {
            let _ = writeln!(out, "{},{g},{d}", csv_cell(&v.label));
        }
    }
    out
}

// --- Artifact implementations ----------------------------------------------

impl Artifact for Heatmap {
    fn title(&self) -> &str {
        self.title()
    }

    fn render(&self, sink: &mut dyn Sink) -> ReportResult<()> {
        match sink.format() {
            // File-oriented text: no ANSI colour codes.
            Format::Text => sink.write_str(&self.render(self.title(), false)),
            Format::Svg => sink.write_str(&heatmap_svg(self, self.title(), &SvgStyle::default())),
            Format::Csv => sink.write_str(&self.to_csv()),
            Format::Json => {
                let cells: Vec<serde::Value> = (0..self.n_rows())
                    .map(|i| {
                        serde::Value::Seq(
                            (0..self.n_cols())
                                .map(|j| match self.get(i, j) {
                                    Some(v) => f64_v(v),
                                    None => serde::Value::Null,
                                })
                                .collect(),
                        )
                    })
                    .collect();
                sink.write_str(&json_of(map(vec![
                    ("title", str_v(self.title())),
                    (
                        "row_labels",
                        serde::Value::Seq(self.row_labels.iter().map(|l| str_v(l)).collect()),
                    ),
                    (
                        "col_labels",
                        serde::Value::Seq(self.col_labels.iter().map(|l| str_v(l)).collect()),
                    ),
                    ("cells", serde::Value::Seq(cells)),
                ])))
            }
        }
    }
}

impl Artifact for ViolinSummary {
    fn title(&self) -> &str {
        &self.label
    }

    fn render(&self, sink: &mut dyn Sink) -> ReportResult<()> {
        match sink.format() {
            Format::Text => sink.write_str(&self.render(48)),
            Format::Svg => sink.write_str(&violins_svg(&[self], &self.label, &SvgStyle::default())),
            Format::Csv => sink.write_str(&violin_csv(&[self])),
            Format::Json => sink.write_str(&json_of(violin_value(self))),
        }
    }
}

impl Artifact for ViolinPair {
    fn title(&self) -> &str {
        &self.title
    }

    fn render(&self, sink: &mut dyn Sink) -> ReportResult<()> {
        match sink.format() {
            Format::Text => {
                let mut out = format!("{}\n\n", self.title);
                out.push_str(&self.left.render(48));
                out.push('\n');
                out.push_str(&self.right.render(48));
                sink.write_str(&out)
            }
            Format::Svg => sink.write_str(&violin_pair_svg(
                &self.left,
                &self.right,
                &self.title,
                &SvgStyle::default(),
            )),
            Format::Csv => sink.write_str(&violin_csv(&[&self.left, &self.right])),
            Format::Json => sink.write_str(&json_of(map(vec![
                ("title", str_v(&self.title)),
                ("left", violin_value(&self.left)),
                ("right", violin_value(&self.right)),
            ]))),
        }
    }
}

impl Artifact for BoxStats {
    fn title(&self) -> &str {
        "boxplot"
    }

    fn render(&self, sink: &mut dyn Sink) -> ReportResult<()> {
        match sink.format() {
            Format::Text => {
                let mut line = self.render_line("sample");
                line.push('\n');
                sink.write_str(&line)
            }
            Format::Svg => sink.write_str(&boxplot_svg(
                &[("sample".to_string(), self.clone())],
                "boxplot",
                &SvgStyle::default(),
            )),
            Format::Csv => {
                sink.write_str(BOX_CSV_HEADER)?;
                sink.write_str(&box_csv_row("sample", self))
            }
            Format::Json => sink.write_str(&json_of(box_value("sample", self))),
        }
    }
}

impl Artifact for BoxplotGroup {
    fn title(&self) -> &str {
        &self.title
    }

    fn render(&self, sink: &mut dyn Sink) -> ReportResult<()> {
        match sink.format() {
            Format::Text => {
                let mut out = format!("{}\n", self.title);
                for (label, b) in &self.groups {
                    out.push_str(&b.render_line(label));
                    out.push('\n');
                }
                sink.write_str(&out)
            }
            Format::Svg => sink.write_str(&boxplot_svg(
                &self.groups,
                &self.title,
                &SvgStyle::default(),
            )),
            Format::Csv => {
                sink.write_str(BOX_CSV_HEADER)?;
                for (label, b) in &self.groups {
                    sink.write_str(&box_csv_row(label, b))?;
                }
                Ok(())
            }
            Format::Json => sink.write_str(&json_of(map(vec![
                ("title", str_v(&self.title)),
                (
                    "groups",
                    serde::Value::Seq(
                        self.groups
                            .iter()
                            .map(|(label, b)| box_value(label, b))
                            .collect(),
                    ),
                ),
            ]))),
        }
    }
}

impl Artifact for Scatter {
    fn title(&self) -> &str {
        &self.title
    }

    fn render(&self, sink: &mut dyn Sink) -> ReportResult<()> {
        let cluster = |i: usize| self.cluster_of.get(i).copied().flatten();
        match sink.format() {
            Format::Text => {
                // render_scatter wants a Labeling; rebuild one from the
                // cluster ids (None = noise).
                let labeling = if self.cluster_of.is_empty() {
                    None
                } else {
                    let labels: Vec<latest_cluster::Label> = self
                        .cluster_of
                        .iter()
                        .map(|c| match c {
                            Some(id) => latest_cluster::Label::Cluster(*id),
                            None => latest_cluster::Label::Noise,
                        })
                        .collect();
                    let n_clusters = self
                        .cluster_of
                        .iter()
                        .flatten()
                        .copied()
                        .max()
                        .map_or(0, |m| m + 1);
                    Some(latest_cluster::Labeling { labels, n_clusters })
                };
                sink.write_str(&render_scatter(
                    &self.title,
                    &self.latencies_ms,
                    labeling.as_ref(),
                    20,
                    64,
                ))
            }
            Format::Svg => sink.write_str(&scatter_svg(
                &self.latencies_ms,
                &self.cluster_of,
                &self.title,
                &SvgStyle::default(),
            )),
            Format::Csv => {
                sink.write_str("measurement,latency_ms,cluster\n")?;
                for (i, ms) in self.latencies_ms.iter().enumerate() {
                    let cell = match cluster(i) {
                        Some(c) => c.to_string(),
                        None => String::new(),
                    };
                    sink.write_str(&format!("{i},{ms},{cell}\n"))?;
                }
                Ok(())
            }
            Format::Json => {
                let clusters: Vec<serde::Value> = (0..self.latencies_ms.len())
                    .map(|i| match cluster(i) {
                        Some(c) => u64_v(c),
                        None => serde::Value::Null,
                    })
                    .collect();
                sink.write_str(&json_of(map(vec![
                    ("title", str_v(&self.title)),
                    ("latencies_ms", f64_seq(&self.latencies_ms)),
                    ("cluster", serde::Value::Seq(clusters)),
                ])))
            }
        }
    }
}

impl Artifact for TextTable {
    fn title(&self) -> &str {
        self.title()
    }

    fn render(&self, sink: &mut dyn Sink) -> ReportResult<()> {
        match sink.format() {
            Format::Text => {
                if self.title().is_empty() {
                    sink.write_str(&self.render())
                } else {
                    sink.write_str(&format!("{}\n{}", self.title(), self.render()))
                }
            }
            Format::Svg => sink.write_str(&text_svg(
                self.title(),
                &self.render(),
                &SvgStyle::default(),
            )),
            Format::Csv => {
                let mut out = String::new();
                let write_row = |out: &mut String, cells: &[String]| {
                    let cols: Vec<String> = cells.iter().map(|c| csv_cell(c)).collect();
                    out.push_str(&cols.join(","));
                    out.push('\n');
                };
                write_row(&mut out, self.header());
                for row in self.rows() {
                    write_row(&mut out, row);
                }
                sink.write_str(&out)
            }
            Format::Json => {
                let rows: Vec<serde::Value> = self
                    .rows()
                    .iter()
                    .map(|r| serde::Value::Seq(r.iter().map(|c| str_v(c)).collect()))
                    .collect();
                sink.write_str(&json_of(map(vec![
                    ("title", str_v(self.title())),
                    (
                        "header",
                        serde::Value::Seq(self.header().iter().map(|c| str_v(c)).collect()),
                    ),
                    ("rows", serde::Value::Seq(rows)),
                ])))
            }
        }
    }
}

impl Artifact for ExperimentRecord {
    fn title(&self) -> &str {
        &self.title
    }

    fn render(&self, sink: &mut dyn Sink) -> ReportResult<()> {
        match sink.format() {
            Format::Text => sink.write_str(&self.render_markdown()),
            Format::Svg => sink.write_str(&text_svg(
                &self.title,
                &self.render_markdown(),
                &SvgStyle::default(),
            )),
            Format::Csv => {
                let mut out = String::from("metric,paper,measured,shape_holds,note\n");
                for r in &self.rows {
                    let _ = writeln!(
                        out,
                        "{},{},{},{},{}",
                        csv_cell(&r.metric),
                        csv_cell(&r.paper),
                        csv_cell(&r.measured),
                        r.shape_holds,
                        csv_cell(&r.note)
                    );
                }
                sink.write_str(&out)
            }
            Format::Json => {
                let mut text =
                    serde_json::to_string_pretty(self).expect("experiment record serialises");
                text.push('\n');
                sink.write_str(&text)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_heatmap() -> Heatmap {
        Heatmap::build(&[705u32, 1095, 1410], &[705u32, 1095, 1410], |r, c| {
            if r == c {
                None
            } else {
                Some((r + c) as f64 / 100.0)
            }
        })
        .with_title("sample heatmap [ms]")
    }

    fn sample_violin(label: &str, base: f64) -> ViolinSummary {
        let xs: Vec<f64> = (0..120).map(|i| base + (i % 12) as f64 * 0.25).collect();
        ViolinSummary::build(label, &xs, 48).unwrap()
    }

    fn all_artifacts() -> Vec<Box<dyn Artifact>> {
        let xs: Vec<f64> = (0..60).map(|i| 5.0 + (i % 7) as f64 * 0.3).collect();
        let mut group = BoxplotGroup::new("per-pair boxplots [ms]");
        group.add("705->1410", &xs).add("1410->705", &xs);
        let mut table = TextTable::with_header(&["device", "pairs"]).titled("summary");
        table.row_display(&["A100, SXM4", "6"]);
        let mut record = ExperimentRecord::new("table2", "Summary", "test params");
        record.compare("worst [ms]", "22.7", "21.4", true, "ok");
        vec![
            Box::new(sample_heatmap()),
            Box::new(sample_violin("increasing", 10.0)),
            Box::new(ViolinPair::new(
                "direction split",
                sample_violin("increasing", 10.0),
                sample_violin("decreasing", 6.0),
            )),
            Box::new(BoxStats::of(&xs).unwrap()),
            Box::new(group),
            Box::new(Scatter::new(
                "GH200 1770->1260",
                xs.clone(),
                (0..60)
                    .map(|i| if i == 3 { None } else { Some(i % 2) })
                    .collect(),
            )),
            Box::new(table),
            Box::new(record),
        ]
    }

    #[test]
    fn every_artifact_renders_through_every_sink() {
        for artifact in all_artifacts() {
            for format in Format::ALL {
                let out = render_to_string(artifact.as_ref(), format).unwrap();
                assert!(
                    !out.is_empty(),
                    "{} produced empty {format} output",
                    artifact.title()
                );
                match format {
                    Format::Svg => {
                        assert!(out.starts_with("<svg"), "{}", artifact.title());
                        assert!(out.trim_end().ends_with("</svg>"), "{}", artifact.title());
                    }
                    Format::Json => {
                        assert!(out.starts_with('{'), "{}", artifact.title());
                        assert!(out.ends_with('\n'), "{}", artifact.title());
                    }
                    Format::Csv => {
                        assert!(out.lines().count() >= 1, "{}", artifact.title());
                    }
                    Format::Text => {}
                }
            }
        }
    }

    #[test]
    fn renders_are_deterministic() {
        for artifact in all_artifacts() {
            for format in Format::ALL {
                let a = render_to_string(artifact.as_ref(), format).unwrap();
                let b = render_to_string(artifact.as_ref(), format).unwrap();
                assert_eq!(a, b, "{} not deterministic in {format}", artifact.title());
            }
        }
    }

    #[test]
    fn sink_formats_and_extensions() {
        assert_eq!(TextSink::new().format(), Format::Text);
        assert_eq!(SvgSink::new().format(), Format::Svg);
        assert_eq!(CsvSink::new().format(), Format::Csv);
        assert_eq!(JsonSink::new().format(), Format::Json);
        let exts: Vec<&str> = Format::ALL.iter().map(|f| f.extension()).collect();
        assert_eq!(exts, vec!["txt", "svg", "csv", "json"]);
    }

    #[test]
    fn csv_cells_are_quoted_when_structural() {
        let mut table = TextTable::with_header(&["name", "note"]);
        table.row_display(&["a,b", "say \"hi\""]);
        let csv = render_to_string(&table, Format::Csv).unwrap();
        assert!(csv.contains("\"a,b\""));
        assert!(csv.contains("\"say \"\"hi\"\"\""));
    }

    #[test]
    fn heatmap_json_has_null_diagonal() {
        let json = render_to_string(&sample_heatmap(), Format::Json).unwrap();
        assert!(json.contains("null"));
        assert!(json.contains("\"row_labels\""));
    }
}
