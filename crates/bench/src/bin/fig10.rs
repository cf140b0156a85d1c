//! Fig. 10: skipping handshake (SYN) packets — Range Tracker memory saved
//! vs RTT samples foregone. Defined in `dart_bench::figures`.

use dart_bench::figures;

fn main() {
    figures::print_section(|_, trace| figures::fig10(trace));
}
