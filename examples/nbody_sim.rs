//! Time-stepping n-body simulation on the FMM, with the ACD model tracking
//! communication as the particle distribution evolves.
//!
//! The paper observes (Section VI-A) that because the *relative* performance
//! of the curves is unchanged across distributions, "there is no incentive
//! to shift the ordering of particles between FMM iterations to reflect the
//! dynamically changing particle distribution profile". This example
//! demonstrates that claim live: it integrates a softened 2-D log-potential
//! system with velocity Verlet using FMM forces, and every few steps
//! re-measures the NFI ACD of all four curves on the *current* positions.
//!
//! Run with: `cargo run --release --example nbody_sim`

use sfc_analysis::core::nfi::nfi_acd;
use sfc_analysis::core::{Assignment, Machine};
use sfc_analysis::curves::{point::Norm, CurveKind, Point2};
use sfc_analysis::fmm::{Fmm, Source};
use sfc_analysis::topology::TopologyKind;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const N: usize = 4_000;
const STEPS: usize = 30;
const DT: f64 = 2e-5;
const MEASURE_EVERY: usize = 10;

struct State {
    sources: Vec<Source>,
    velocities: Vec<(f64, f64)>,
}

impl State {
    /// A rotating disc: positions in a Gaussian blob, velocities tangential.
    fn disc(seed: u64) -> State {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut sources = Vec::with_capacity(N);
        let mut velocities = Vec::with_capacity(N);
        while sources.len() < N {
            let u1: f64 = 1.0 - rng.gen::<f64>();
            let u2: f64 = rng.gen();
            let r = 0.12 * (-2.0 * u1.ln()).sqrt();
            let theta = std::f64::consts::TAU * u2;
            let (x, y) = (0.5 + r * theta.cos(), 0.5 + r * theta.sin());
            if !(0.05..0.95).contains(&x) || !(0.05..0.95).contains(&y) {
                continue;
            }
            sources.push(Source::new(x, y, 1.0 / N as f64));
            // Tangential velocity for rough rotational support.
            let speed = 40.0 * r;
            velocities.push((-speed * theta.sin(), speed * theta.cos()));
        }
        State { sources, velocities }
    }

    /// One velocity-Verlet step with FMM forces. The force on particle `i`
    /// is `−qᵢ ∇φ(zᵢ)`; with `Φ'` the complex field, `∇φ = (Re Φ', −Im Φ')`.
    fn step(&mut self, solver: &Fmm) {
        let fields = solver.potentials_and_fields(&self.sources);
        for ((s, v), (_, grad)) in self
            .sources
            .iter_mut()
            .zip(&mut self.velocities)
            .zip(&fields)
        {
            let (fx, fy) = (-grad.re, grad.im);
            v.0 += fx * DT;
            v.1 += fy * DT;
            let nx = (s.pos.re + v.0 * DT).clamp(0.001, 0.998);
            let ny = (s.pos.im + v.1 * DT).clamp(0.001, 0.998);
            s.pos = sfc_analysis::fmm::Complex::new(nx, ny);
        }
    }

    /// Snap current positions to distinct grid cells for the ACD model.
    fn grid_cells(&self, order: u32) -> Vec<Point2> {
        let side = (1u64 << order) as f64;
        let mut seen = std::collections::HashSet::new();
        self.sources
            .iter()
            .filter_map(|s| {
                let p = Point2::new((s.pos.re * side) as u32, (s.pos.im * side) as u32);
                seen.insert((p.x, p.y)).then_some(p)
            })
            .collect()
    }
}

fn measure(state: &State, step: usize) {
    let order = 8;
    let procs = 1024u64;
    let cells = state.grid_cells(order);
    print!("step {step:>3} ({} occupied cells): ", cells.len());
    let mut acds = Vec::new();
    for curve in CurveKind::PAPER {
        let asg = Assignment::new(&cells, order, curve, procs);
        let machine = Machine::new(TopologyKind::Torus, procs, curve);
        acds.push(nfi_acd(&asg, &machine, 1, Norm::Chebyshev).unwrap().acd());
    }
    println!(
        "NFI ACD  H={:.3}  Z={:.3}  G={:.3}  R={:.3}",
        acds[0], acds[1], acds[2], acds[3]
    );
    let min = acds
        .iter()
        .enumerate()
        .min_by(|a, b| a.1.total_cmp(b.1))
        .unwrap()
        .0;
    assert_eq!(min, 0, "Hilbert stays the winner as the system evolves");
}

fn main() {
    println!("rotating disc, {N} bodies, velocity Verlet with FMM forces\n");
    let solver = Fmm::new(10);
    let mut state = State::disc(11);
    measure(&state, 0);
    for step in 1..=STEPS {
        state.step(&solver);
        if step % MEASURE_EVERY == 0 {
            measure(&state, step);
        }
    }
    println!(
        "\nThe ranking of the curves never changes while the distribution\n\
         evolves — the paper's argument that re-ordering particles between\n\
         FMM iterations buys nothing."
    );
}
