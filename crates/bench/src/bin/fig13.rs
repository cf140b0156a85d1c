//! Fig. 13: an 8-stage PT as the per-record recirculation cap grows from 1
//! to 8. Defined in `dart_bench::figures`.

use dart_bench::figures;

fn main() {
    figures::print_section(|s, t| figures::sweep(figures::SweepAxis::Recirc, s, t));
}
