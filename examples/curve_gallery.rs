//! Gallery: draw each space-filling curve's path on a 16×16 grid (the
//! paper's Figure 1) and print a miniature version of its Figure 5 — the
//! average nearest-neighbor stretch of each curve as resolution grows.
//!
//! Run with: `cargo run --release --example curve_gallery`

use sfc_analysis::core::anns::anns;
use sfc_analysis::curves::{CurveKind, Point2};

/// Render the curve of the given order as ASCII line art: each cell shows
/// the direction the curve leaves it in.
fn render(kind: CurveKind, order: u32) -> String {
    let curve = kind.curve(order);
    let side = curve.side() as usize;
    let mut glyphs = vec![vec!['?'; side]; side];
    for idx in 0..curve.len() {
        let here = curve.point(idx);
        let glyph = if idx + 1 == curve.len() {
            '#' // endpoint
        } else {
            let next = curve.point(idx + 1);
            match (next.x as i64 - here.x as i64, next.y as i64 - here.y as i64) {
                (1, 0) => '>',
                (-1, 0) => '<',
                (0, 1) => '^',
                (0, -1) => 'v',
                (dx, 0) if dx > 1 => '}',
                (dx, 0) if dx < -1 => '{',
                (0, dy) if dy > 1 => '/',
                (0, dy) if dy < -1 => '\\',
                _ => '*', // non-axis jump (row-major row wrap)
            }
        };
        glyphs[here.y as usize][here.x as usize] = glyph;
    }
    let mut out = String::new();
    for row in glyphs.iter().rev() {
        out.push_str("  ");
        out.extend(row.iter());
        out.push('\n');
    }
    out
}

fn main() {
    let order = 4; // 16x16, as in the paper's Figure 1
    for kind in CurveKind::PAPER {
        println!("{} (order {order}):", kind.name());
        print!("{}", render(kind, order));
        let start = kind.curve(order).point(0);
        debug_assert_eq!(start, Point2::new(0, 0));
        println!();
    }

    println!("Average Nearest Neighbor Stretch (paper Figure 5(a)):");
    println!(
        "{:>10} {:>10} {:>10} {:>10} {:>10}",
        "grid", "Hilbert", "Z", "Gray", "RowMajor"
    );
    for order in 2..=8 {
        let row: Vec<f64> = CurveKind::PAPER
            .iter()
            .map(|&k| anns(k, order).unwrap().average())
            .collect();
        let side = 1u64 << order;
        println!(
            "{:>7}^2 {:>10.2} {:>10.2} {:>10.2} {:>10.2}",
            side, row[0], row[1], row[2], row[3]
        );
    }
    println!(
        "\nNote the inversion the paper highlights: the 'smart' Hilbert and Gray\n\
         curves lose to Z-order and row-major under this metric, even though\n\
         they win on the communication (ACD) metrics."
    );
}
