//! Fig. 12: a fixed-size PT split across 1–8 stages, still allowing only one
//! recirculation. Defined in `dart_bench::figures`.

use dart_bench::figures;

fn main() {
    figures::print_section(|s, t| figures::sweep(figures::SweepAxis::Stages, s, t));
}
