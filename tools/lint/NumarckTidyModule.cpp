// Registration shim: packages the two project checks as an out-of-tree
// clang-tidy module, loaded with `clang-tidy -load=numarck-tidy-module.so`.
// The library links nothing — its undefined symbols resolve from the host
// clang-tidy process at dlopen time, which also guarantees the module
// registry singleton is shared rather than duplicated.
#include "clang-tidy/ClangTidyModule.h"
#include "clang-tidy/ClangTidyModuleRegistry.h"

#include "DecodeThrowsCheck.h"
#include "UncheckedDeserializeCheck.h"

namespace clang::tidy {
namespace numarck {

class NumarckModule : public ClangTidyModule {
public:
  void addCheckFactories(ClangTidyCheckFactories &CheckFactories) override {
    CheckFactories.registerCheck<UncheckedDeserializeCheck>(
        "numarck-unchecked-deserialize");
    CheckFactories.registerCheck<DecodeThrowsCheck>("numarck-decode-throws");
  }
};

} // namespace numarck

static ClangTidyModuleRegistry::Add<numarck::NumarckModule>
    X("numarck-module", "NUMARCK project-specific checks (docs/ANALYSIS.md).");

// Referenced nowhere; its presence keeps the registration object file alive
// under aggressive linkers.
volatile int NumarckModuleAnchorSource = 0;

} // namespace clang::tidy
