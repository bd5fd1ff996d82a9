//! `cargo bench --bench experiments` — regenerates every table and figure
//! of the paper's evaluation and prints them in order.
//!
//! Set `GRUB_EXPERIMENTS=fig3,fig7` to run a subset; an unknown name fails
//! the run with the list of known ones.

fn main() -> Result<(), grub_fault::KnobError> {
    let selected = grub_bench::select(grub_fault::knob("GRUB_EXPERIMENTS").as_deref())?;
    let start_all = std::time::Instant::now();
    for (name, title, f) in selected {
        let start = std::time::Instant::now();
        println!("==== {name}: {title} ====\n");
        let tables: Vec<String> = f().iter().map(grub_bench::Table::render).collect();
        println!("{}", tables.join("\n"));
        println!("---- ({name} took {:.1?})\n", start.elapsed());
    }
    println!("all experiments done in {:.1?}", start_all.elapsed());
    Ok(())
}
