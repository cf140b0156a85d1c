//! Fig. 6: CDF of internal-leg RTTs, wired vs wireless campus subnets.
//! Defined in `dart_bench::figures`.

use dart_bench::figures;

fn main() {
    figures::print_section(figures::fig6);
}
