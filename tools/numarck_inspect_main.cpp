// numarck-inspect — print the contents of a NUMARCK checkpoint container
// or a tiered checkpoint store directory.
//
//   numarck-inspect run.ckpt      # single container: per-record table
//   numarck-inspect store_dir/    # store: tier table + per-file health
//   numarck-inspect --arch        # report the target the kernels were built for
#include <sys/stat.h>

#include <cstdio>
#include <cstring>
#include <iostream>

#include "numarck/arch/arch.hpp"
#include "numarck/tools/cli.hpp"

namespace {

bool is_directory(const char* path) {
  struct ::stat st = {};
  return ::stat(path, &st) == 0 && S_ISDIR(st.st_mode);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc == 2 && std::strcmp(argv[1], "--arch") == 0) {
    std::cout << numarck::arch::describe() << "\n";
    return 0;
  }
  if (argc != 2) {
    std::fprintf(stderr, "usage: numarck-inspect FILE.ckpt|STORE_DIR | --arch\n");
    return 2;
  }
  try {
    if (is_directory(argv[1])) {
      // Read-only: prints the tier table and per-file health without
      // repairing anything (opening the store would recover it).
      numarck::tools::inspect_store_dir(argv[1], std::cout);
    } else {
      numarck::tools::inspect_file(argv[1], std::cout);
    }
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
