//! Experiment harness reproducing every table and figure of the ERASER paper.
//!
//! Run `eraser-experiments help` for the commands and options; both are
//! printed from [`COMMANDS`] and [`OPTIONS`] below.

mod cli;
mod figures;
mod output;
mod paper;

use cli::Opts;

/// A figure command: name, runner, and the one-line summary `help` prints.
type Command = (&'static str, fn(&Opts) -> Result<(), String>, &'static str);

/// Every figure command, in the order `all` runs them.
#[rustfmt::skip]
static COMMANDS: &[Command] = &[
    ("analytic", figures::analytic, "Eq. (1)/(2) transport analysis (§3.1, Table 1)"),
    ("table2", figures::table2, "invisible-leakage probabilities (Eq. 3)"),
    ("fig1c", figures::fig1c, "LER: No-LRC vs Always-LRC vs Optimal over QEC cycles"),
    ("fig2c", figures::fig2c, "LER with vs without leakage over QEC cycles"),
    ("fig5", figures::fig5, "LPR per round under Always-LRC (total/data/parity)"),
    ("fig6", figures::fig6, "LPR + LER: Always-LRC vs Optimal"),
    ("fig8", figures::fig8, "density-matrix leakage-spread study (single Z stabilizer)"),
    ("fig14", figures::fig14, "LER vs distance for the four policies"),
    ("fig15", figures::fig15, "LPR per round at d=11 for the four policies"),
    ("fig16", figures::fig16, "speculation accuracy, FPR/FNR"),
    ("table3", figures::table3, "RTL generation + FPGA resource model"),
    ("table4", figures::table4, "average LRCs per round"),
    ("fig17", figures::fig17, "LER vs distance, exchange-transport model (App A.1)"),
    ("fig18", figures::fig18, "LPR at d=11, exchange-transport model (App A.1)"),
    ("fig20", figures::fig20, "LER vs distance with the DQLR protocol (App A.2)"),
    ("fig21", figures::fig21, "LPR at d=11 with the DQLR protocol (App A.2)"),
    ("ablation", figures::ablation, "LSB threshold / PUTT / backup / decoder ablations"),
    ("postselect", figures::postselect, "post-selection vs real-time suppression (§7.1)"),
    ("memx", figures::memx, "memory-X vs memory-Z symmetry check (extension)"),
    ("erasure", figures::erasure, "ERASER+M ± erasure-aware decoding (extension)"),
    ("longmem", figures::longmem, "windowed vs full-cover decoding, R up to 100d (extension)"),
    ("predecode", figures::predecode, "tier hit rates and per-window decode latency (extension)"),
    ("adaptive", figures::adaptive, "feedback-controlled vs static LRC policies (extension)"),
];

/// The options every command accepts, as `help` prints them.
const OPTIONS: &str = "\
options:
  --shots N      Monte-Carlo shots per configuration (default 1000)
  --seed N       root RNG seed (default 2023)
  --threads N    worker threads (default: all cores)
  --p F          physical error rate (default 1e-3)
  --d N          override the figure's code distance
  --dmax N       cap the distance sweep (default 11)
  --cycles N     QEC cycles (default 10; each cycle is d rounds)
  --decoder K    auto | mwpm | sparse-mwpm | uf (default auto)
  --window W[:S] sliding-window decoding: W rounds per window, S committed
                 per step (S defaults to W - d; 0/unset = full cover)
  --out DIR      CSV output directory (default results/)
  --quick        tiny-budget smoke run (overrides --shots)";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (command, opts) = match cli::parse(&args) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("run with `help` for usage");
            std::process::exit(2);
        }
    };
    if let Err(e) = dispatch(&command, &opts) {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
}

fn dispatch(command: &str, opts: &Opts) -> Result<(), String> {
    if command == "help" || command == "-h" {
        print!("{}", usage());
        return Ok(());
    }
    for (_, run, _) in plan(command)? {
        run(opts)?;
    }
    Ok(())
}

/// The figure commands `command` runs: all of them for `all`, else the one
/// it names.
fn plan(command: &str) -> Result<&'static [Command], String> {
    if command == "all" {
        return Ok(COMMANDS);
    }
    COMMANDS
        .iter()
        .position(|&(name, _, _)| name == command)
        .map(|i| &COMMANDS[i..=i])
        .ok_or_else(|| format!("unknown command `{command}`"))
}

/// The `help` text: usage line, command table, options.
fn usage() -> String {
    let mut text = String::from("eraser-experiments <command> [options]\n\ncommands:\n");
    let extra = [
        ("all", "run every command above"),
        ("help", "print this message"),
    ];
    let figures = COMMANDS.iter().map(|&(name, _, summary)| (name, summary));
    for (name, summary) in figures.chain(extra) {
        text.push_str(&format!("  {name:<10} {summary}\n"));
    }
    text.push('\n');
    text.push_str(OPTIONS);
    text.push('\n');
    text
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names(cmds: &[Command]) -> Vec<&'static str> {
        cmds.iter().map(|c| c.0).collect()
    }

    #[test]
    fn command_names_are_unique() {
        let mut seen = names(COMMANDS);
        seen.extend(["all", "help", "-h"]);
        let count = seen.len();
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), count);
    }

    #[test]
    fn every_name_dispatches_and_is_listed() {
        for cmd @ &(name, _, summary) in COMMANDS {
            let picked = plan(name).unwrap();
            assert_eq!(picked.len(), 1);
            assert!(std::ptr::eq(&picked[0], cmd), "{name}");
            assert!(usage().contains(&format!("  {name:<10} {summary}\n")));
        }
    }

    #[test]
    fn all_runs_every_figure_command() {
        assert_eq!(names(plan("all").unwrap()), names(COMMANDS));
    }

    #[test]
    fn help_flag_is_the_help_command() {
        for line in ["--help", "fig14 --help", "--quick --help fig14", "", "help"] {
            let args: Vec<String> = line.split_whitespace().map(String::from).collect();
            assert_eq!(cli::parse(&args).unwrap().0, "help", "{line:?}");
        }
        assert_eq!(cli::parse(&["-h".to_string()]).unwrap().0, "-h");
        assert!(dispatch("help", &Opts::default()).is_ok());
    }

    #[test]
    fn unknown_command_is_an_error() {
        assert_eq!(
            dispatch("x", &Opts::default()).unwrap_err(),
            "unknown command `x`"
        );
    }
}
