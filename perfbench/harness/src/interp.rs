//! `interp-check`: on a seeded sample of configurations, compare
//! `kernelgen::execute` against the benchmark's own scalar loop for the
//! op (GUPS, whose scatter order is a hash, against the XOR-sum property
//! every update order must keep).

use crate::Rng;
use kernelgen::{AccessPattern, DataType, KernelConfig, StreamOp, VectorWidth};

fn word_i32(buf: &[u8], i: usize) -> i32 {
    i32::from_ne_bytes(buf[i * 4..i * 4 + 4].try_into().expect("4-byte slice"))
}

fn word_f64(buf: &[u8], i: usize) -> f64 {
    f64::from_ne_bytes(buf[i * 8..i * 8 + 8].try_into().expect("8-byte slice"))
}

/// The expected destination array, or `None` for GUPS (checked by
/// property instead).
fn scalar_loop(cfg: &KernelConfig, b: &[u8], c: &[u8]) -> Option<Vec<u8>> {
    let n = cfg.n_words as usize;
    let w = cfg.dtype.word_bytes() as usize;
    let mut a = vec![0u8; n * w];
    match cfg.op {
        StreamOp::RandomAccess => return None,
        StreamOp::Ptrans => {
            let (rows, cols) = cfg.matrix_shape();
            for r in 0..rows as usize {
                for col in 0..cols as usize {
                    let (src, dst) = (r * cols as usize + col, col * rows as usize + r);
                    a[dst * w..dst * w + w].copy_from_slice(&b[src * w..src * w + w]);
                }
            }
        }
        StreamOp::DgemmLite => {
            let k = cfg.matrix_shape().1 as usize;
            for i in 0..n {
                let (r, col) = (i / k, i % k);
                let mut acc = 0i32;
                for kk in 0..k {
                    acc = acc.wrapping_add(
                        word_i32(b, r * k + kk).wrapping_mul(word_i32(c, kk * k + col)),
                    );
                }
                a[i * 4..i * 4 + 4].copy_from_slice(&acc.to_ne_bytes());
            }
        }
        op => {
            for i in 0..n {
                let bytes = match cfg.dtype {
                    DataType::I32 => {
                        let (x, q) = (word_i32(b, i), cfg.q as i32);
                        let v = match op {
                            StreamOp::Copy => x,
                            StreamOp::Scale => q.wrapping_mul(x),
                            StreamOp::Add => x.wrapping_add(word_i32(c, i)),
                            _ => x.wrapping_add(q.wrapping_mul(word_i32(c, i))),
                        };
                        v.to_ne_bytes().to_vec()
                    }
                    DataType::F64 => {
                        let (x, q) = (word_f64(b, i), cfg.q);
                        let v = match op {
                            StreamOp::Copy => x,
                            StreamOp::Scale => q * x,
                            StreamOp::Add => x + word_f64(c, i),
                            _ => x + q * word_f64(c, i),
                        };
                        v.to_ne_bytes().to_vec()
                    }
                };
                a[i * w..i * w + w].copy_from_slice(&bytes);
            }
        }
    }
    Some(a)
}

/// A seeded configuration the interpreter accepts, or `None` to redraw.
fn draw(rng: &mut Rng) -> Option<KernelConfig> {
    let op = StreamOp::FAMILIES[rng.below(StreamOp::FAMILIES.len() as u64) as usize];
    let n = 1u64 << (10 + rng.below(5));
    let mut cfg = KernelConfig::baseline(op, n);
    if op.is_stream() {
        cfg.dtype = if rng.below(2) == 0 {
            DataType::I32
        } else {
            DataType::F64
        };
        cfg.vector_width = VectorWidth::new(1 << rng.below(5)).ok()?;
        cfg.pattern = match rng.below(3) {
            0 => AccessPattern::Contiguous,
            1 => AccessPattern::ColMajor { cols: None },
            _ => AccessPattern::Strided {
                stride: 1 << (1 + rng.below(4)),
            },
        };
    }
    kernelgen::validate(&cfg).ok().map(|_| cfg)
}

/// Seeded configurations compared per run.
const SAMPLES: u64 = 24;

/// Run `SAMPLES` seeded comparisons and print one JSON line listing the
/// configurations whose output differed.
pub fn main(args: &[String]) -> Result<(), String> {
    let seed: u64 = match args {
        [flag, n] if flag == "--seed" => n.parse().map_err(|_| "interp-check: bad --seed")?,
        _ => return Err("usage: interp-check --seed <n>".into()),
    };
    let mut rng = Rng(seed ^ 0x1A7E_5C4A_1A50);
    let (mut checked, mut mismatched) = (0u64, Vec::new());
    while checked < SAMPLES {
        let Some(cfg) = draw(&mut rng) else { continue };
        let bytes = cfg.array_bytes() as usize;
        let b: Vec<u8> = (0..bytes).map(|_| rng.next_u64() as u8).collect();
        let c: Vec<u8> = (0..bytes).map(|_| rng.next_u64() as u8).collect();
        let mut a = vec![0xA5u8; bytes];
        kernelgen::execute(&cfg, &mut a, &b, &c);
        let ok = match scalar_loop(&cfg, &b, &c) {
            Some(expected) => expected == a,
            None => {
                let xor =
                    |buf: &[u8]| (0..cfg.n_words as usize).fold(0i32, |x, i| x ^ word_i32(buf, i));
                xor(&a) == xor(&b)
            }
        };
        if !ok {
            mismatched.push(format!(
                "\"{:?} {:?} n={}\"",
                cfg.op, cfg.pattern, cfg.n_words
            ));
        }
        checked += 1;
    }
    println!(
        "{{\"checked\": {checked}, \"mismatched\": [{}]}}",
        mismatched.join(", ")
    );
    Ok(())
}
