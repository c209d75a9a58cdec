//! Figure 3: shapes of the ReLU, GBReLU, FitReLU-Naive and trainable FitReLU
//! activation functions.
//!
//! Prints the four functions sampled over x ∈ [−5, 10] for a bound λ = 4
//! (matching the qualitative panels of the paper's Fig. 3) and writes the
//! series to `target/experiments/fig3_activation_shapes.csv`.

use fitact::{BoundedRelu, FitRelu};
use fitact_bench::report::Table;
use fitact_nn::{Activation, ReLU};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let lambda = 4.0f32;
    let slope = 8.0f32;
    let relu = ReLU::new();
    let gbrelu = BoundedRelu::clip_act(lambda);
    let naive = BoundedRelu::per_neuron(&[lambda]);
    let fitrelu = FitRelu::from_bounds(&[lambda], slope);

    let mut table = Table::new(
        format!("Fig. 3 — activation shapes (lambda = {lambda}, k = {slope})"),
        &["x", "relu", "gbrelu", "fitrelu_naive", "fitrelu"],
    );
    let steps = 61;
    for i in 0..steps {
        let x = -5.0 + 15.0 * i as f32 / (steps - 1) as f32;
        table.push_row(vec![
            format!("{x:.2}"),
            format!("{:.4}", relu.eval_scalar(x, 0)),
            format!("{:.4}", gbrelu.eval_scalar(x, 0)),
            format!("{:.4}", naive.eval_scalar(x, 0)),
            format!("{:.4}", fitrelu.eval_scalar(x, 0)),
        ]);
    }
    println!("{}", table.to_pretty_string());
    let path = table.write_csv("fig3_activation_shapes.csv")?;
    println!("series written to {}", path.display());

    // A compact qualitative summary matching the figure's message.
    println!();
    println!("ReLU is unbounded; GBReLU and FitReLU-Naive squash values above lambda to 0;");
    println!("trainable FitReLU follows the hard clamp but with a smooth, differentiable edge.");
    Ok(())
}
