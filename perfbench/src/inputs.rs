//! Input generation: every input is a function of the run's seed, written
//! to a `.tns` file that the program then reads back through
//! `sptensor::io`.

use datagen::{DatasetProfile, ProfileName};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use sptensor::io::{read_tns_file_streamed, StreamOptions, TensorIoError};
use sptensor::SparseTensor;
use std::path::{Path, PathBuf};

/// A scratch directory for one run's input files, removed when dropped.
pub struct WorkDir {
    path: PathBuf,
}

impl WorkDir {
    /// Creates `perfbench/.work/<tag>-<pid>` under the current directory.
    pub fn create(tag: &str) -> std::io::Result<Self> {
        let path = Path::new("perfbench")
            .join(".work")
            .join(format!("{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&path)?;
        Ok(WorkDir { path })
    }

    pub fn file(&self, name: &str) -> PathBuf {
        self.path.join(name)
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

/// Where the traced run writes its spans (kept after the run).
pub fn trace_path(workload: &str, seed: u64) -> std::io::Result<PathBuf> {
    let dir = Path::new("perfbench").join(".work");
    std::fs::create_dir_all(&dir)?;
    Ok(dir.join(format!("trace-{workload}-seed{seed}.jsonl")))
}

/// Generator seed of every profile draw.  A workload's tensors are fixed
/// draws: how hard a draw is for the Lanczos TRSVD (its restart count)
/// varies by a fifth between draws of one profile, which would swamp any
/// change a run should show.
pub const PROFILE_SEED: u64 = 0x7e45_0001;

/// Writes draw `draw` of a profile to `path`, with its dimensions in the
/// header and its nonzeros in an order shuffled by `order_seed`: every run
/// seed hands the program a different file of the same tensor.
pub fn write_profile(
    profile: ProfileName,
    nnz: usize,
    draw: u64,
    order_seed: u64,
    path: &Path,
) -> std::io::Result<()> {
    let drawn = DatasetProfile::new(profile).generate(nnz, PROFILE_SEED.wrapping_add(draw));
    let mut order: Vec<usize> = (0..drawn.nnz()).collect();
    let mut rng = SmallRng::seed_from_u64(order_seed);
    for i in (1..order.len()).rev() {
        order.swap(i, rng.gen_range(0..i + 1));
    }
    let mut tensor = SparseTensor::with_capacity(drawn.dims().to_vec(), drawn.nnz());
    for &k in &order {
        tensor.push(drawn.index(k), drawn.value(k));
    }
    sptensor::io::write_tns_file_with_header(&tensor, path)
}

/// Reads a `.tns` file through the program's streaming reader.
pub fn read(path: &Path) -> Result<SparseTensor, TensorIoError> {
    read_tns_file_streamed(path, &StreamOptions::new()).map(|(t, _)| t)
}

/// Writes the uploaded file that carries a `nan` value: 120 nonzeros of a
/// 6×5×4 tensor, one of them `nan`.  The same file on every run and seed.
pub fn write_nonfinite_upload(path: &Path) -> std::io::Result<()> {
    let mut text = String::from("# dims: 6 5 4\n");
    for i in 0..6 {
        for j in 0..5 {
            for k in 0..4 {
                let n = (i * 5 + j) * 4 + k;
                if n == 57 {
                    text.push_str(&format!("{} {} {} nan\n", i + 1, j + 1, k + 1));
                } else {
                    let v = 0.25 + (n % 7) as f64 * 0.125;
                    text.push_str(&format!("{} {} {} {v}\n", i + 1, j + 1, k + 1));
                }
            }
        }
    }
    std::fs::write(path, text)
}
