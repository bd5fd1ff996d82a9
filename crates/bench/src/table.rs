//! The experiments' results as data: a [`Table`] of pre-formatted cells and
//! the one text layout every experiment prints through.

use std::fmt::{Display, Write as _};

use grub_core::metrics::RunReport;

/// One result table of an experiment.
#[derive(Debug, Default)]
pub struct Table {
    /// Printed verbatim above the table (`## `-prefixed for a paper
    /// artifact); may span lines, and an empty title prints nothing.
    pub title: String,
    /// Column heads; empty for a table without a head row.
    pub head: Vec<String>,
    /// Rows of pre-formatted cells; a row may have fewer cells than the
    /// widest row.
    pub rows: Vec<Vec<String>>,
    /// Lines printed after the rows, below a blank line.
    pub notes: Vec<String>,
}

impl Table {
    /// A table with `title` and column heads `head`, and no rows yet.
    pub fn new(title: impl Into<String>, head: &[&str]) -> Self {
        Self {
            title: title.into(),
            head: head.iter().map(|&h| h.to_owned()).collect(),
            ..Self::default()
        }
    }

    /// Appends one row, each cell as it displays.
    pub fn row(&mut self, cells: &[&dyn Display]) {
        self.rows
            .push(cells.iter().map(ToString::to_string).collect());
    }

    /// Appends one trailing note line.
    pub fn note(mut self, note: impl Into<String>) -> Self {
        self.notes.push(note.into());
        self
    }

    /// Lays the table out as text: every column as wide as its widest cell
    /// (in `char`s), the first left-aligned and the rest right-aligned, two
    /// spaces apart.
    pub fn render(&self) -> String {
        let lines: Vec<&Vec<String>> = std::iter::once(&self.head)
            .filter(|head| !head.is_empty())
            .chain(&self.rows)
            .collect();
        let mut widths: Vec<usize> = Vec::new();
        for line in &lines {
            widths.resize(widths.len().max(line.len()), 0);
            for (width, cell) in widths.iter_mut().zip(line.iter()) {
                *width = (*width).max(cell.chars().count());
            }
        }
        let mut out = String::new();
        if !self.title.is_empty() {
            let _ = writeln!(out, "{}", self.title);
        }
        for line in lines {
            let mut text = String::new();
            for (i, (cell, width)) in line.iter().zip(&widths).enumerate() {
                let _ = match i {
                    0 => write!(text, "{cell:<width$}"),
                    _ => write!(text, "  {cell:>width$}"),
                };
            }
            let _ = writeln!(out, "{}", text.trim_end());
        }
        if !self.notes.is_empty() {
            out.push('\n');
            for note in &self.notes {
                let _ = writeln!(out, "{note}");
            }
        }
        out
    }
}

/// The per-epoch feed Gas/op of each named run, one row for every `every`th
/// epoch; a run with fewer epochs reads `NaN` past its end.
pub(crate) fn series(title: &str, every: usize, runs: &[(String, RunReport)]) -> Table {
    let columns: Vec<Vec<f64>> = runs.iter().map(|(_, run)| run.feed_series()).collect();
    let epochs = columns.iter().map(Vec::len).max().unwrap_or(0);
    let mut head = vec!["epoch".to_owned()];
    head.extend(runs.iter().map(|(name, _)| name.clone()));
    let rows = (0..epochs)
        .step_by(every)
        .map(|e| {
            let values = columns
                .iter()
                .map(|c| c.get(e).copied().unwrap_or(f64::NAN));
            std::iter::once(e.to_string())
                .chain(values.map(|v| format!("{v:.0}")))
                .collect()
        })
        .collect();
    Table {
        title: title.to_owned(),
        head,
        rows,
        notes: Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use grub_core::metrics::EpochReport;

    fn cells(row: &[&str]) -> Vec<String> {
        row.iter().map(|&c| c.to_owned()).collect()
    }

    #[test]
    fn columns_are_as_wide_as_their_widest_cell_in_chars() {
        let mut table = Table::new("## T", &["policy", "vs"]);
        table.row(&[&"GRuB", &"—"]);
        table.row(&[&"BL1 (no replica)", &"+126.8%"]);
        table.row(&[&'x', &f64::NAN]);
        assert_eq!(
            table.render(),
            "## T\n\
             policy                 vs\n\
             GRuB                    —\n\
             BL1 (no replica)  +126.8%\n\
             x                     NaN\n"
        );
    }

    #[test]
    fn notes_print_after_the_rows() {
        let mut table = Table::new("", &[]).note("first").note("second");
        table.row(&[&"a", &1]);
        table.row(&[&"bb"]);
        assert_eq!(table.render(), "a   1\nbb\n\nfirst\nsecond\n");
    }

    fn run(policy: &str, gas_per_epoch: &[u64]) -> (String, RunReport) {
        let epochs = gas_per_epoch
            .iter()
            .enumerate()
            .map(|(epoch, &feed_gas)| EpochReport {
                epoch,
                ops: 2,
                feed_gas,
                app_gas: 0,
                replications: 0,
                evictions: 0,
                failed_delivers: 0,
            })
            .collect();
        let report = RunReport {
            policy: policy.to_owned(),
            epochs,
        };
        (policy.to_owned(), report)
    }

    #[test]
    fn series_pads_a_shorter_run_with_nan() {
        let table = series("s", 1, &[run("long", &[10, 20, 30]), run("short", &[40])]);
        assert_eq!(table.head, cells(&["epoch", "long", "short"]));
        assert_eq!(
            table.rows,
            [
                cells(&["0", "5", "20"]),
                cells(&["1", "10", "NaN"]),
                cells(&["2", "15", "NaN"]),
            ]
        );
    }

    #[test]
    fn series_prints_every_kth_epoch_from_zero() {
        let table = series("s", 3, &[run("r", &[2; 8])]);
        let epochs: Vec<&str> = table.rows.iter().map(|row| row[0].as_str()).collect();
        assert_eq!(epochs, ["0", "3", "6"]);
    }
}
