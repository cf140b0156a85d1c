//! Fig. 9: Dart (unlimited memory) vs the tcptrace baseline — sample counts
//! (±SYN), RTT CDF, and the large-RTT CCDF tail. Defined in
//! `dart_bench::figures`.

use dart_bench::figures;

fn main() {
    figures::print_section(|_, trace| figures::fig9(trace));
}
