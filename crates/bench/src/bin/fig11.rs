//! Fig. 11: Dart with a large RT table and varying PT size (one stage, one
//! recirculation allowed). Defined in `dart_bench::figures`.

use dart_bench::figures;

fn main() {
    figures::print_section(|s, t| figures::sweep(figures::SweepAxis::PtSize, s, t));
}
