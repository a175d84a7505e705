//! The paper's tables and figures, one section per module (E1–E7 plus the
//! related-work and design-space tables).
//!
//! `paper <name>` prints one section; `paper` alone prints all nine, each
//! under a `################ <name> ################` separator. Every
//! section's stdout is pinned byte for byte by `tests/paper.rs` against
//! `tests/golden/paper/<name>.txt`; EXPERIMENTS.md maps names to the
//! paper's artefacts.

mod design_space;
mod figure7a_speedup;
mod figure7b_energy;
mod table1_synthesis;
mod table2_workloads;
mod table3_quantization;
mod table_motivation;
mod table_related_work;
mod table_sanger_comparison;

/// The nine sections, in the order `paper` alone prints them. The only
/// list of them: `tests/paper.rs` reads it off the usage message and holds
/// the golden directory and EXPERIMENTS.md's index to it.
const NAMES: [(&str, fn()); 9] = [
    ("table_motivation", table_motivation::run),
    ("table1_synthesis", table1_synthesis::run),
    ("table2_workloads", table2_workloads::run),
    ("figure7a_speedup", figure7a_speedup::run),
    ("figure7b_energy", figure7b_energy::run),
    ("table_sanger_comparison", table_sanger_comparison::run),
    ("table_related_work", table_related_work::run),
    ("table3_quantization", table3_quantization::run),
    ("design_space", design_space::run),
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.as_slice() {
        [] => {
            for (name, run) in NAMES {
                println!("\n################ {name} ################");
                run();
            }
            println!("\nall experiments completed");
        }
        [name] => match NAMES.iter().find(|(known, _)| known == name) {
            Some((_, run)) => run(),
            None => usage(),
        },
        _ => usage(),
    }
}

fn usage() -> ! {
    eprintln!("usage: paper [<name>], where <name> is one of:");
    for (name, _) in NAMES {
        eprintln!("  {name}");
    }
    std::process::exit(2);
}
