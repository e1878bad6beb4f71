// The benchmark is a module of its own so that building it never touches the
// repository's build: it sits inside the mozart/ import-path tree, so it may
// import mozart/internal/..., and reaches the parent module by a relative
// replace.
module mozart/benchmark

go 1.22

require mozart v0.0.0

replace mozart => ../
