//! Table 1: data-plane resource usage of the Dart program on Tofino 1
//! (ingress+egress layout) and Tofino 2 (ingress-only layout). Defined in
//! `dart_bench::figures`.

fn main() {
    print!("{}", dart_bench::figures::table1());
}
