use incast_benchmark::alloc::Counting;

// Counts only while `alloc::measure` holds its flag up (the heap pass);
// the timed phase pays one relaxed load per allocation.
#[global_allocator]
static ALLOC: Counting = Counting;

fn main() -> std::process::ExitCode {
    incast_benchmark::alloc::retain_freed_memory();
    incast_benchmark::cli::main()
}
