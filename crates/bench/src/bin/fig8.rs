//! Fig. 8: detecting a traffic-interception attack from the min-RTT of
//! 8-sample windows — suspect on an abrupt rise, confirm when it sustains.
//! Defined in `dart_bench::figures`.

fn main() {
    print!("{}", dart_bench::figures::fig8());
}
