//! Experiment harness reproducing every table and figure of the ERASER paper.
//!
//! ```text
//! eraser-experiments <command> [options]
//!
//! commands:
//!   analytic   Eq. (1)/(2) transport analysis (§3.1, Table 1)
//!   table2     invisible-leakage probabilities (Eq. 3)
//!   fig1c      LER: No-LRC vs Always-LRC vs Optimal over QEC cycles
//!   fig2c      LER with vs without leakage over QEC cycles
//!   fig5       LPR per round under Always-LRC (total/data/parity)
//!   fig6       LPR + LER: Always-LRC vs Optimal
//!   fig8       density-matrix leakage-spread study (single Z stabilizer)
//!   fig14      LER vs distance for the four policies
//!   fig15      LPR per round at d=11 for the four policies
//!   fig16      speculation accuracy, FPR/FNR
//!   table3     RTL generation + FPGA resource model
//!   table4     average LRCs per round
//!   fig17      LER vs distance, exchange-transport model (App A.1)
//!   fig18      LPR at d=11, exchange-transport model (App A.1)
//!   fig20      LER vs distance with the DQLR protocol (App A.2)
//!   fig21      LPR at d=11 with the DQLR protocol (App A.2)
//!   ablation   LSB threshold / PUTT / backup / decoder ablations
//!   postselect offline post-selection vs real-time suppression (§7.1)
//!   memx       memory-X vs memory-Z symmetry check (extension)
//!   erasure    ERASER+M ± erasure-aware decoding across (d, p) (extension)
//!   longmem    windowed vs monolithic decoding at R in {d,10d,100d} (extension)
//!   latency    per-window decode latency at d=7, R=110, all backends (extension)
//!   predecode  tiered fast-path hit rates and decode cost, all backends (extension)
//!   adaptive   feedback-controlled LRC density vs static policies (extension)
//!   all        run everything
//!
//! options:
//!   --shots N      Monte-Carlo shots per configuration (default 1000)
//!   --seed N       root RNG seed (default 2023)
//!   --threads N    worker threads (default: all cores)
//!   --p F          physical error rate (default 1e-3)
//!   --d N          override the figure's code distance
//!   --dmax N       cap the distance sweep (default 11)
//!   --cycles N     QEC cycles (default 10; each cycle is d rounds)
//!   --decoder K    auto | mwpm | sparse-mwpm | uf (default auto)
//!   --window W[:S] sliding-window decoding: W rounds per window, S committed
//!                  per step (S defaults to W - d; 0/unset = full cover)
//!   --out DIR      CSV output directory (default results/)
//!   --quick        tiny-budget smoke run (overrides --shots)
//! ```

mod cli;
mod figures;
mod output;
mod paper;

use cli::Opts;

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
    match command {
        "analytic" => figures::analytic(opts),
        "table2" => figures::table2(opts),
        "fig1c" => figures::fig1c(opts),
        "fig2c" => figures::fig2c(opts),
        "fig5" => figures::fig5(opts),
        "fig6" => figures::fig6(opts),
        "fig8" => figures::fig8(opts),
        "fig14" => figures::fig14(opts),
        "fig15" => figures::fig15(opts),
        "fig16" => figures::fig16(opts),
        "table3" => figures::table3(opts),
        "table4" => figures::table4(opts),
        "fig17" => figures::fig17(opts),
        "fig18" => figures::fig18(opts),
        "fig20" => figures::fig20(opts),
        "fig21" => figures::fig21(opts),
        "ablation" => figures::ablation(opts),
        "postselect" => figures::postselect(opts),
        "memx" => figures::memx(opts),
        "erasure" => figures::erasure(opts),
        "longmem" => figures::longmem(opts),
        "latency" => figures::latency(opts),
        "predecode" => figures::predecode(opts),
        "adaptive" => figures::adaptive(opts),
        "all" => {
            for cmd in [
                "analytic",
                "table2",
                "fig8",
                "table3",
                "fig1c",
                "fig2c",
                "fig5",
                "fig6",
                "fig14",
                "fig15",
                "fig16",
                "table4",
                "fig17",
                "fig18",
                "fig20",
                "fig21",
                "ablation",
                "erasure",
                "longmem",
                "latency",
                "predecode",
                "adaptive",
            ] {
                dispatch(cmd, opts)?;
            }
            Ok(())
        }
        "help" | "--help" | "-h" => {
            println!("see module docs in crates/experiments/src/main.rs for usage");
            Ok(())
        }
        other => Err(format!("unknown command `{other}`")),
    }
}
